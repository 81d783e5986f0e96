//! The resumable per-stream execution engine.
//!
//! [`StreamEngine`] is the runtime manager's per-frame loop (Section 6,
//! Fig. 7 of the paper): one stream's manager, application state, recovery
//! bookkeeping, and result accumulators, driven one frame at a time
//! through [`StreamEngine::step_on`] — the only plan → execute → absorb →
//! recover body in the crate, which also sets the quality level of a
//! stream built with QoS control. Because each step is externally driven,
//! the engine can be parked between frames: the service core parks it
//! after every turn, holding nothing for it, and the next turn resumes it
//! on whichever pool shard has room, with all stream state in the engine
//! itself; [`StreamEngine::run`] drives one to completion on the calling
//! thread with no scheduler involved.
//!
//! Pixel outputs depend only on the input sequence and application
//! configuration, never on where or when the engine was scheduled.

use crate::budget::LatencyBudget;
use crate::faults::{fault_hash, FaultPlan};
use crate::manager::{ManagerConfig, ResourceManager};
use crate::qos::QosController;
use crate::recovery::{RecoveryPolicy, RecoveryState};
use crate::service::admission::AdmissionPolicy;
use crate::session::{StreamFailure, StreamResult, StreamSpec};
use imaging::image::ImageU16;
use imaging::parallel::StripePool;
use pipeline::app::{AppConfig, AppState};
use pipeline::executor::{process_frame_with, FrameCtx, FrameFaults};
use platform::bus::{DegradeMode, FaultKind, FrameEvent, StreamId};
use platform::metrics::Observability;
use platform::trace::TraceLog;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;
use xray::{SequenceConfig, SequenceGenerator};

/// One stream's complete execution state, advanced frame by frame.
///
/// Construction mirrors admission: the engine is built from a
/// [`StreamSpec`] with an allocated core count, and its manager's bus can
/// be wired to an [`Observability`] instance before the first step. The
/// engine then accepts frames in strictly increasing sequence order (the
/// order [`SequenceGenerator`] produces them)
/// and is consumed by [`finish`](Self::finish) into a [`StreamResult`].
pub struct StreamEngine {
    id: StreamId,
    seq: SequenceConfig,
    app: AppConfig,
    manager: ResourceManager,
    cores: usize,
    faults: Option<FaultPlan>,
    recovery: RecoveryPolicy,
    state: AppState,
    rec: RecoveryState,
    trace: TraceLog,
    predictions: Vec<f64>,
    planned_cost_ms: Vec<f64>,
    admission: AdmissionPolicy,
    stripes: Vec<usize>,
    displays: Vec<Option<ImageU16>>,
    frame_wall_ms: Vec<f64>,
    dropped_frames: usize,
    /// QoS state of a stream built with it: the controller and the
    /// full-quality `AppConfig` its levels apply to (boxed: rarely set).
    qos: Option<Box<(QosController, AppConfig)>>,
    collected: Arc<Mutex<Vec<FrameEvent>>>,
    started: Option<Instant>,
    quarantine_cause: FaultKind,
}

impl StreamEngine {
    /// Builds an engine from a spec with an allocated core count.
    pub fn new(id: StreamId, spec: StreamSpec, cores: usize) -> Self {
        let cores = cores.max(1);
        let cfg = ManagerConfig {
            cores,
            ..spec.manager_cfg
        };
        let mut manager = ResourceManager::for_stream(spec.model, cfg, id);
        if let Some(b) = spec.budget {
            manager.set_budget(b);
        }
        // record every fault-family event this stream emits, with or without
        // a fault plan, so callers can assert replay determinism
        let collected = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&collected);
        manager.subscribe(Box::new(move |e: &FrameEvent| {
            if e.replay_key().is_some() {
                sink.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(e.clone());
            }
        }));
        let state = AppState::new(spec.seq.width, spec.seq.height);
        let frames = spec.seq.frames;
        let qos = spec
            .qos
            .then(|| Box::new((QosController::default(), spec.app.clone())));
        Self {
            id,
            seq: spec.seq,
            app: spec.app,
            manager,
            cores,
            faults: spec.faults,
            recovery: spec.recovery,
            state,
            rec: RecoveryState::default(),
            trace: TraceLog::new(),
            predictions: Vec::with_capacity(frames),
            planned_cost_ms: Vec::with_capacity(frames),
            admission: spec.admission,
            stripes: Vec::with_capacity(frames),
            displays: Vec::with_capacity(frames),
            frame_wall_ms: Vec::with_capacity(frames),
            dropped_frames: 0,
            qos,
            collected,
            started: None,
            quarantine_cause: FaultKind::SnapshotCorruption,
        }
    }

    /// Wires the engine's bus into an [`Observability`] instance (metrics
    /// registry and span collector).
    pub fn attach_observability(&mut self, obs: &Observability) {
        obs.attach(self.manager.bus_mut());
    }

    /// Frames consumed so far (executed plus injection-dropped).
    pub(crate) fn frames_done(&self) -> usize {
        self.trace.len() + self.dropped_frames
    }

    /// Predicted remaining work, ms — the service core's rank key: the
    /// frames the sequence still owes times the per-frame cost at the
    /// stream's [`AdmissionPolicy`] point, which is the last frame's
    /// planned cost, or `unstarted_ms` before the first frame was planned.
    pub(crate) fn remaining_ms(&self, unstarted_ms: f64) -> f64 {
        let owed = self.seq.frames.saturating_sub(self.frames_done());
        owed as f64 * self.planned_cost_ms.last().copied().unwrap_or(unstarted_ms)
    }

    /// Emits a lifecycle event from the service tier (admission,
    /// pre-emption) onto the stream's own bus so attached observability
    /// sees it alongside the frame-level events.
    pub(crate) fn emit(&mut self, event: FrameEvent) {
        self.manager.bus_mut().emit(event);
    }

    /// Runs the stream's own sequence to completion on the calling thread
    /// and the process-global pool: the scheduler-free reference every
    /// service-tier identity test compares against.
    pub fn run(mut self) -> Result<StreamResult, StreamFailure> {
        for frame in SequenceGenerator::new(self.seq.clone()) {
            self.step_on(StripePool::global(), frame.index, &frame.image)?;
        }
        Ok(self.finish())
    }

    /// Advances the stream by one frame — the one plan → execute → absorb
    /// → recover body every driver goes through — running data-parallel
    /// stages on the given pool shard at the stripe count its plan chose.
    /// A stream built with QoS control then sets the quality level the
    /// next frame runs at. The fault-injection sections only run for a
    /// stream built with a fault plan, and none of them changes the plan.
    /// Unrecoverable frame failures (only possible with fault injection
    /// and `serial_fallback` disabled) surface as a [`StreamFailure`]
    /// error instead of unwinding.
    pub fn step_on(
        &mut self,
        pool: &StripePool,
        index: usize,
        image: &ImageU16,
    ) -> Result<(), StreamFailure> {
        if self.started.is_none() {
            self.started = Some(Instant::now());
        }
        let stream = self.id;
        if self.faults.is_some_and(|p| p.drops_frame(stream, index)) {
            let bus = self.manager.bus_mut();
            bus.emit(FrameEvent::FaultInjected {
                stream,
                frame: index,
                kind: FaultKind::FrameDrop,
            });
            bus.emit(FrameEvent::DegradedMode {
                stream,
                frame: index,
                mode: DegradeMode::OutputDropped,
                cause: FaultKind::FrameDrop,
            });
            self.dropped_frames += 1;
            return Ok(());
        }

        let ft0 = Instant::now();
        // the ROI the frame will process is known from tracking state
        let roi_kpixels = self
            .state
            .current_roi
            .map(|r| r.area() as f64 / 1000.0)
            .unwrap_or_else(|| (image.width() * image.height()) as f64 / 1000.0);
        let plan = self.manager.plan(roi_kpixels);
        self.predictions.push(plan.predicted_total_ms);
        self.planned_cost_ms
            .push(self.admission.cost(&plan.prediction()));
        self.stripes.push(plan.policy.stripes);

        let faults = self
            .faults
            .map_or_else(FrameFaults::default, |p| p.frame_faults(stream, index));
        let bus = Some((stream, self.manager.bus_mut()));
        let ctx = FrameCtx::new(pool, bus, faults, self.recovery.retry);
        let out = process_frame_with(ctx, index, image, &mut self.state, &self.app, &plan.policy);
        let out = out.map_err(|err| StreamFailure {
            stream,
            message: err.to_string(),
            frames_completed: self.frames_done(),
        })?;
        // a QoS stream judges the frame against the budget it was planned
        // under: read it before `absorb` seeds one on a stream's first frame
        let planned_budget = self.qos.as_ref().and_then(|_| self.manager.budget());
        let latency_ms = out.record.latency_ms;
        self.manager.absorb(&out);

        // model quarantine bookkeeping: release first, then check for a
        // new corruption checkpoint on this frame
        self.release_quarantine(index);
        if let Some(plan) = self.faults.filter(|p| p.corrupts_snapshot(stream, index)) {
            self.corrupt_snapshot_checkpoint(index, plan.seed());
        }

        let wall_ms = ft0.elapsed().as_secs_f64() * 1000.0;
        self.displays.push(out.display);
        self.trace.push(out.record);
        self.frame_wall_ms.push(wall_ms);
        // drift quarantine needs no fault plan: scenario storms in the input
        // content are enough to trigger it (no-op unless configured)
        self.check_drift(index, plan.scenario.id(), out.scenario.id());
        self.control_quality(index, plan.feasible, latency_ms, planned_budget);
        Ok(())
    }

    /// QoS control (a no-op for a stream built without it): the plan's
    /// feasibility and the frame's latency against the budget it was
    /// planned under set the level the next frame runs at.
    fn control_quality(
        &mut self,
        index: usize,
        feasible: bool,
        latency_ms: f64,
        planned_budget: Option<LatencyBudget>,
    ) {
        let Some((controller, base)) = self.qos.as_deref_mut() else {
            return;
        };
        if let Some(level) = controller.update(feasible, latency_ms, planned_budget) {
            self.app = level.apply(base);
            self.manager.bus_mut().emit(FrameEvent::QosIntervention {
                stream: self.id,
                frame: index,
                level: level as u8,
            });
        }
    }

    /// An injected snapshot corruption: checkpoint, deterministically
    /// garble, and attempt the restore. The corrupted snapshot must be
    /// rejected with an `Err` (never a panic), leaving the live model
    /// untouched; the model is then quarantined.
    fn corrupt_snapshot_checkpoint(&mut self, idx: usize, seed: u64) {
        let stream = self.id;
        self.manager.bus_mut().emit(FrameEvent::FaultInjected {
            stream,
            frame: idx,
            kind: FaultKind::SnapshotCorruption,
        });
        let pristine = self.manager.model().clone();
        let mut garbled = pristine.snapshot_bytes();
        if !garbled.is_empty() {
            let h = fault_hash(seed, stream, idx, 0xC0);
            let at = (h as usize) % garbled.len();
            garbled[at] ^= 0xA5;
        }
        if self.manager.model_mut().try_restore_bytes(&garbled).is_ok() {
            // the garble happened to still decode as a valid snapshot:
            // roll back to the pre-garble model
            *self.manager.model_mut() = pristine;
        }
        let online = self.manager.model().online_training();
        if online {
            self.manager.model_mut().set_online_training(false);
        }
        self.rec.enter_quarantine(online);
        self.quarantine_cause = FaultKind::SnapshotCorruption;
        self.manager.bus_mut().emit(FrameEvent::DegradedMode {
            stream,
            frame: idx,
            mode: DegradeMode::ModelQuarantine,
            cause: FaultKind::SnapshotCorruption,
        });
    }

    /// Releases a pending model quarantine if its countdown expires this
    /// frame: re-enables online training (when it was on before) and
    /// emits the matching terminal `Recovered` event.
    fn release_quarantine(&mut self, idx: usize) {
        if self.rec.tick_quarantine() {
            if self.rec.resume_online() {
                self.manager.model_mut().set_online_training(true);
            }
            let stream = self.id;
            let kind = self.quarantine_cause;
            self.manager.bus_mut().emit(FrameEvent::Recovered {
                stream,
                frame: idx,
                kind,
                attempts: 0,
            });
        }
    }

    /// Prediction-drift bookkeeping: feeds the predicted/actual scenario
    /// pair into the rolling drift window and, on a drift trigger,
    /// quarantines the model and re-estimates its scenario chain from
    /// the recent actual-scenario window (a storm's transition structure
    /// replaces the stale training-time chain). No-op unless
    /// [`RecoveryPolicy::drift_threshold`] is set.
    fn check_drift(&mut self, idx: usize, predicted: u8, actual: u8) {
        let policy = self.recovery;
        if !self.rec.note_scenario(predicted, actual, &policy) {
            return;
        }
        let online = self.manager.model().online_training();
        if online {
            self.manager.model_mut().set_online_training(false);
        }
        self.rec.enter_quarantine(online);
        self.quarantine_cause = FaultKind::PredictionDrift;
        let mut recent = self.trace.scenarios();
        recent.drain(..recent.len().saturating_sub(policy.drift_window.max(2)));
        let retrained = self.manager.model_mut().retrain_scenario_chain(&recent);
        let stream = self.id;
        let bus = self.manager.bus_mut();
        bus.emit(FrameEvent::DegradedMode {
            stream,
            frame: idx,
            mode: DegradeMode::ModelQuarantine,
            cause: FaultKind::PredictionDrift,
        });
        if retrained {
            bus.emit(FrameEvent::ModelRetrained {
                stream,
                frame: idx,
                observations: recent.len(),
            });
        }
    }

    /// Consumes the engine into its final [`StreamResult`]. `wall_ms`
    /// covers first step to finish (queue wait before the first frame is
    /// reported separately by the service tier as admission latency).
    pub fn finish(self) -> StreamResult {
        let wall_ms = self
            .started
            .map(|t| t.elapsed().as_secs_f64() * 1000.0)
            .unwrap_or(0.0);
        StreamResult {
            stream: self.id,
            cores: self.cores,
            accuracy: self.manager.accuracy(),
            calibration: self.manager.calibration(),
            infeasible_frames: self.manager.infeasible_frames(),
            degraded_frames: self.qos.map_or(0, |q| q.0.degraded_frames),
            budget: self.manager.budget(),
            trace: self.trace,
            predictions: self.predictions,
            planned_cost_ms: self.planned_cost_ms,
            admission: self.admission,
            stripes: self.stripes,
            displays: self.displays,
            frame_wall_ms: self.frame_wall_ms,
            wall_ms,
            dropped_frames: self.dropped_frames,
            fault_events: self
                .collected
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultPlan, FaultPlanConfig};
    use crate::test_support::{poison, seq, trained_model};

    /// The fault sections of `step_on` must be inert when the plan arms
    /// nothing: a zero-rate plan is indistinguishable from no plan on
    /// every deterministic output plane, the frame plan included,
    /// under a generous budget and under one no stripe count can meet.
    #[test]
    fn zero_rate_plan_matches_no_plan() {
        let model = trained_model();
        for target_ms in [10_000.0, 0.001] {
            let spec = || {
                StreamSpec::builder(seq(120, 10), AppConfig::default(), model.clone())
                    .budget(LatencyBudget::new(target_ms, 0.1))
            };
            let bare = StreamEngine::new(0, spec().build(), 4).run().unwrap();
            let plan = FaultPlan::new(5, FaultPlanConfig::default());
            let hooked = StreamEngine::new(0, spec().faults(plan).build(), 4)
                .run()
                .unwrap();

            assert_eq!(bare.trace.len(), 10);
            assert!(
                bare.displays.iter().any(|d| d.is_some()),
                "comparison is vacuous: no display was ever produced"
            );
            assert_eq!(bare.trace.scenarios(), hooked.trace.scenarios());
            assert_eq!(bare.stripes, hooked.stripes, "budget {target_ms} ms");
            assert_eq!(bare.planned_cost_ms, hooked.planned_cost_ms);
            assert_eq!(bare.displays, hooked.displays);
            assert_eq!(hooked.dropped_frames, 0);
            assert!(hooked.fault_events.is_empty(), "{:?}", hooked.fault_events);
            assert_eq!(bare.budget, hooked.budget);
        }
    }

    /// An engine whose fault plan drops frames, and its fault-event log.
    fn dropping_engine() -> (StreamEngine, Arc<Mutex<Vec<FrameEvent>>>) {
        let plan = FaultPlan::new(
            9,
            FaultPlanConfig {
                drop_rate: 0.5,
                ..FaultPlanConfig::default()
            },
        );
        let spec = StreamSpec::builder(seq(120, 8), AppConfig::default(), trained_model())
            .faults(plan)
            .build();
        let engine = StreamEngine::new(0, spec, 1);
        let log = Arc::clone(&engine.collected);
        (engine, log)
    }

    /// The fault-event subscriber keeps recording into a log another
    /// holder poisoned, and `finish` reads it.
    #[test]
    fn fault_events_record_into_a_poisoned_log() -> Result<(), StreamFailure> {
        let (engine, log) = dropping_engine();
        poison(&log);
        let result = engine.run()?;
        assert!(result.dropped_frames > 0);
        assert!(!result.fault_events.is_empty());
        Ok(())
    }

    /// `finish` reads a log poisoned after the last frame.
    #[test]
    fn finish_reads_a_poisoned_log() -> Result<(), StreamFailure> {
        let (mut engine, log) = dropping_engine();
        for frame in SequenceGenerator::new(engine.seq.clone()) {
            engine.step_on(StripePool::global(), frame.index, &frame.image)?;
        }
        poison(&log);
        let clean = dropping_engine().0.run()?;
        assert!(!clean.fault_events.is_empty());
        assert_eq!(engine.finish().fault_events, clean.fault_events);
        Ok(())
    }

    /// A QoS stream of `frames` frames under a 1 µs budget, raised to
    /// 10 s before frame `relax_at`: its result and the `(frame, level)`
    /// of every `QosIntervention` on its bus.
    fn qos_run(frames: usize, relax_at: usize) -> (StreamResult, Vec<(usize, u8)>) {
        let spec = StreamSpec::builder(seq(106, frames), AppConfig::default(), trained_model())
            .budget(LatencyBudget::new(0.001, 0.1))
            .qos()
            .build();
        let mut engine = StreamEngine::new(0, spec, 2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        engine.manager.subscribe(Box::new(move |e: &FrameEvent| {
            if let FrameEvent::QosIntervention { frame, level, .. } = *e {
                sink.lock().unwrap().push((frame, level));
            }
        }));
        for frame in SequenceGenerator::new(engine.seq.clone()) {
            if frame.index == relax_at {
                engine.manager.set_budget(LatencyBudget::new(10_000.0, 0.1));
            }
            engine
                .step_on(StripePool::global(), frame.index, &frame.image)
                .unwrap();
        }
        let interventions = seen.lock().unwrap().clone();
        (engine.finish(), interventions)
    }

    /// How many times smaller than at full quality each display is, frame
    /// 0 (which registers nothing, so shows nothing) left out.
    fn zoom_divisors(result: &StreamResult) -> Vec<usize> {
        assert!(result.displays[0].is_none());
        let full = AppConfig::default().zoom.out_width;
        let width = |d: &Option<ImageU16>| d.as_ref().expect("a display").width();
        result.displays[1..]
            .iter()
            .map(|d| full / width(d))
            .collect()
    }

    /// No partitioning meets 1 µs: every plan is infeasible, so quality
    /// drops a level after frames 2 and 5 and applies from the next frame
    /// on — frames 0–2 at full quality, 3–5 without fine scales, 6–9 with
    /// the zoom halved.
    #[test]
    fn qos_degrades_under_an_impossible_budget() {
        let (result, interventions) = qos_run(10, usize::MAX);
        assert_eq!(result.infeasible_frames, 10);
        assert_eq!(interventions, [(2, 1), (5, 2)]);
        assert_eq!(result.degraded_frames, 7);
        assert_eq!(zoom_divisors(&result), [1, 1, 1, 1, 1, 2, 2, 2, 2]);
    }

    /// Quality climbs back once the budget relaxes: from frame 6 on every
    /// frame is feasible and comfortable, and each run of ten such frames
    /// restores one level — the full zoom after frame 15, the fine scales
    /// after frame 25.
    #[test]
    fn qos_recovers_when_the_budget_relaxes() {
        let (result, interventions) = qos_run(28, 6);
        assert_eq!(interventions, [(2, 1), (5, 2), (15, 1), (25, 0)]);
        assert_eq!(result.infeasible_frames, 6);
        assert_eq!(result.degraded_frames, 23); // frames 3–25
        let divisors = [[1; 5].as_slice(), &[2; 10], &[1; 12]].concat();
        assert_eq!(zoom_divisors(&result), divisors);
    }

    /// Every frame comfortably inside the budget: QoS never intervenes
    /// and the pixels are a QoS-off engine's.
    #[test]
    fn qos_holds_full_quality_under_a_generous_budget() {
        let (result, interventions) = qos_run(10, 0);
        assert!(interventions.is_empty(), "{interventions:?}");
        assert_eq!(result.degraded_frames, 0);
        let off = StreamSpec::builder(seq(106, 10), AppConfig::default(), trained_model())
            .budget(LatencyBudget::new(10_000.0, 0.1))
            .build();
        let off = StreamEngine::new(0, off, 2).run().unwrap();
        assert!(off.displays.iter().any(|d| d.is_some()));
        assert_eq!(result.displays, off.displays);
    }
}
