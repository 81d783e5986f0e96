//! The resumable per-stream execution engine.
//!
//! [`StreamEngine`] is the runtime manager's per-frame loop (Section 6,
//! Fig. 7 of the paper): one stream's manager, application state, recovery
//! bookkeeping, and result accumulators, driven one frame at a time
//! through [`StreamEngine::step_on`] — the only plan → execute → absorb →
//! recover body in the crate. Because each step is externally driven, the
//! engine can be parked between frames: the service core parks it after
//! every turn, holding nothing for it, and the next turn resumes it on
//! whichever pool shard has room, with all stream state in the engine
//! itself; [`StreamEngine::run`] drives one to completion on the calling
//! thread with no scheduler involved.
//!
//! Pixel outputs depend only on the input sequence and application
//! configuration, never on where or when the engine was scheduled.

use crate::faults::{fault_hash, FaultInjector};
use crate::manager::{ManagerConfig, Plan, ResourceManager};
use crate::recovery::{RecoveryAction, RecoveryPolicy, RecoveryState};
use crate::service::admission::AdmissionPolicy;
use crate::session::{StreamFailure, StreamResult, StreamSpec};
use imaging::image::ImageU16;
use imaging::parallel::StripePool;
use pipeline::app::{AppConfig, AppState};
use pipeline::executor::{process_frame_recovering_on, FrameFaults};
use platform::bus::{DegradeMode, FaultKind, FrameEvent, RepartitionReason, StreamId};
use platform::metrics::Observability;
use platform::trace::TraceLog;
use std::sync::{Arc, Mutex};
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
    injector: Option<Arc<dyn FaultInjector>>,
    recovery: RecoveryPolicy,
    state: AppState,
    rec: RecoveryState,
    trace: TraceLog,
    predictions: Vec<f64>,
    planned_cost_ms: Vec<f64>,
    admission: AdmissionPolicy,
    stripes: Vec<usize>,
    scenarios: Vec<u8>,
    displays: Vec<Option<ImageU16>>,
    frame_wall_ms: Vec<f64>,
    dropped_frames: usize,
    collected: Option<Arc<Mutex<Vec<FrameEvent>>>>,
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
        // record every fault-family event this stream emits (executor- and
        // session-level) so callers can assert replay determinism
        let collected = spec.faults.as_ref().map(|_| {
            let collected: Arc<Mutex<Vec<FrameEvent>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = Arc::clone(&collected);
            manager.subscribe(Box::new(move |e: &FrameEvent| {
                if e.replay_key().is_some() {
                    sink.lock().unwrap().push(e.clone());
                }
            }));
            collected
        });
        let state = AppState::new(spec.seq.width, spec.seq.height);
        let frames = spec.seq.frames;
        Self {
            id,
            seq: spec.seq,
            app: spec.app,
            manager,
            cores,
            injector: spec.faults,
            recovery: spec.recovery,
            state,
            rec: RecoveryState::new(),
            trace: TraceLog::new(),
            predictions: Vec::with_capacity(frames),
            planned_cost_ms: Vec::with_capacity(frames),
            admission: spec.admission,
            stripes: Vec::with_capacity(frames),
            scenarios: Vec::with_capacity(frames),
            displays: Vec::with_capacity(frames),
            frame_wall_ms: Vec::with_capacity(frames),
            dropped_frames: 0,
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

    /// The stream's input-sequence configuration.
    pub(crate) fn seq(&self) -> &SequenceConfig {
        &self.seq
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

    /// The stream's resource manager (e.g. to attach bus subscribers).
    pub fn manager_mut(&mut self) -> &mut ResourceManager {
        &mut self.manager
    }

    /// The application configuration the next frame will run with (the
    /// QoS driver swaps quality levels in between frames).
    pub(crate) fn app_mut(&mut self) -> &mut AppConfig {
        &mut self.app
    }

    /// Measured latency of frame `index` if it was the last one
    /// executed (`None` when the step dropped it at the input).
    pub(crate) fn latency_of(&self, index: usize) -> Option<f64> {
        let last = self.trace.records().last()?;
        (last.frame == index).then_some(last.latency_ms)
    }

    /// Emits a lifecycle event from the surrounding driver (service-tier
    /// admission/pre-emption, QoS interventions) onto the stream's own bus so
    /// attached observability sees it alongside the frame-level events.
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
    /// stages on the given pool shard. The fault-injection sections only
    /// run for a stream built with an injector: without one the stream
    /// never downshifts, drops no frame and emits no fault-family event.
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
        let injector = self.injector.clone();
        let stream = self.id;
        if injector
            .as_ref()
            .is_some_and(|i| i.drops_frame(stream, index))
        {
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
        let mut plan = self.manager.plan(roi_kpixels);
        let planned_rdg = plan.policy.rdg_stripes;
        // a cap only ever exists after an injector-driven downshift
        self.rec.apply_cap(&mut plan.policy);
        self.predictions.push(plan.predicted_total_ms);
        self.planned_cost_ms
            .push(self.admission.cost(&plan.prediction()));
        self.stripes.push(plan.policy.rdg_stripes);

        let faults = injector
            .as_ref()
            .map_or_else(FrameFaults::default, |i| i.frame_faults(stream, index));
        let out = process_frame_recovering_on(
            pool,
            index,
            image,
            &mut self.state,
            &self.app,
            &plan.policy,
            stream,
            self.manager.bus_mut(),
            faults,
            &self.recovery.retry,
        )
        .map_err(|err| StreamFailure {
            stream,
            message: err.to_string(),
            frames_completed: self.trace.len(),
        })?;
        self.manager.absorb(&out);

        if injector.is_some() {
            self.note_overrun(index, &plan, planned_rdg, out.record.latency_ms);
        }
        // model quarantine bookkeeping: release first, then check for a
        // new corruption checkpoint on this frame
        self.release_quarantine(index);
        if let Some(injector) = &injector {
            if injector.corrupts_snapshot(stream, index) {
                self.corrupt_snapshot_checkpoint(index, injector.seed());
            }
        }

        let wall_ms = ft0.elapsed().as_secs_f64() * 1000.0;
        self.scenarios.push(out.scenario.id());
        // drift quarantine needs no injector: scenario storms in the input
        // content are enough to trigger it (no-op unless configured)
        self.check_drift(index, plan.scenario.id(), out.scenario.id());
        self.displays.push(out.display);
        self.trace.push(out.record);
        self.frame_wall_ms.push(wall_ms);
        Ok(())
    }

    /// Stripe downshift on repeated budget overruns, and the lift once
    /// the stream ran clean again.
    fn note_overrun(&mut self, idx: usize, plan: &Plan, planned_rdg: usize, latency_ms: f64) {
        let overrun = self
            .manager
            .budget()
            .is_some_and(|b| latency_ms > b.target_ms);
        let stream = self.id;
        let action = self.rec.note_frame(overrun, plan.policy.rdg_stripes);
        let bus = self.manager.bus_mut();
        match action {
            RecoveryAction::Downshift(cap) => {
                bus.emit(FrameEvent::DegradedMode {
                    stream,
                    frame: idx,
                    mode: DegradeMode::StripeDownshift,
                    cause: FaultKind::Overrun,
                });
                bus.emit(FrameEvent::RepartitionDecided {
                    stream,
                    frame: idx,
                    from_rdg_stripes: plan.policy.rdg_stripes,
                    to_rdg_stripes: cap,
                    aux_stripes: plan.policy.aux_stripes.min(cap),
                    reason: RepartitionReason::Downshift,
                });
            }
            RecoveryAction::Lift(_) => {
                bus.emit(FrameEvent::Recovered {
                    stream,
                    frame: idx,
                    kind: FaultKind::Overrun,
                    attempts: 0,
                });
                bus.emit(FrameEvent::RepartitionDecided {
                    stream,
                    frame: idx,
                    from_rdg_stripes: plan.policy.rdg_stripes,
                    to_rdg_stripes: planned_rdg,
                    aux_stripes: plan.policy.aux_stripes,
                    reason: RepartitionReason::Lift,
                });
            }
            RecoveryAction::None => {}
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
        let start = self
            .scenarios
            .len()
            .saturating_sub(policy.drift_window.max(2));
        let recent: Vec<u8> = self.scenarios[start..].to_vec();
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
            budget: self.manager.budget(),
            trace: self.trace,
            predictions: self.predictions,
            planned_cost_ms: self.planned_cost_ms,
            admission: self.admission,
            stripes: self.stripes,
            scenarios: self.scenarios,
            displays: self.displays,
            frame_wall_ms: self.frame_wall_ms,
            wall_ms,
            dropped_frames: self.dropped_frames,
            fault_events: self
                .collected
                .map(|c| c.lock().unwrap().clone())
                .unwrap_or_default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::LatencyBudget;
    use crate::faults::{FaultPlan, FaultPlanConfig};
    use crate::test_support::{seq, trained_model};

    /// The injector-only sections of `step_on` must be inert when the
    /// injector arms nothing: a zero-rate plan is indistinguishable from
    /// no injector on every deterministic output plane.
    #[test]
    fn zero_rate_injector_matches_no_injector() {
        let model = trained_model();
        let spec = || {
            StreamSpec::builder(seq(120, 10), AppConfig::default(), model.clone())
                .budget(LatencyBudget::new(10_000.0, 0.1))
        };
        let bare = StreamEngine::new(0, spec().build(), 4).run().unwrap();
        let plan = FaultPlan::new(5, FaultPlanConfig::default());
        let hooked = StreamEngine::new(0, spec().faults(Arc::new(plan)).build(), 4)
            .run()
            .unwrap();

        assert_eq!(bare.trace.len(), 10);
        assert!(
            bare.displays.iter().any(|d| d.is_some()),
            "comparison is vacuous: no display was ever produced"
        );
        assert_eq!(bare.scenarios, hooked.scenarios);
        assert_eq!(bare.stripes, hooked.stripes);
        assert_eq!(bare.planned_cost_ms, hooked.planned_cost_ms);
        assert_eq!(bare.displays, hooked.displays);
        assert_eq!(hooked.dropped_frames, 0);
        assert!(hooked.fault_events.is_empty(), "{:?}", hooked.fault_events);
        assert_eq!(bare.budget, hooked.budget);
    }
}
