//! The trace runner: deterministic replay of a workload trace through
//! the service tier.
//!
//! [`TraceRunner`] expands a parsed [`Trace`] into service
//! [`StreamSpec`]s (per-profile sequence content, scripted scenario
//! storms, synthetic analytic prediction models, explicit budgets,
//! seeded fault plans), feeds the merged arrival schedule through
//! [`ServiceHandle::submit`](crate::service::ServiceHandle::submit) in
//! global `(time, stream, frame)` order,
//! and assembles a [`RunLedger`] from the resulting [`ServiceReport`].
//!
//! Two replays of the same trace produce ledger-identical runs because
//! every diffable ledger field is derived from the deterministic plane:
//!
//! - the submit order and arrival times come from the trace itself;
//! - prediction models are *synthetic* (per-task cost series scaled by
//!   resolution with a fixed cyclic fluctuation, scenario chain trained
//!   on a fixed sequence) with online training off — a frozen model
//!   ignores observations entirely, so plans (and the admission-quantile
//!   costs derived from them) never depend on measured wall time;
//! - every stream carries an explicit [`LatencyBudget`], which disables
//!   the first-frame (wall-clock) budget initialization;
//! - fault plans are seeded and keyed on `(stream, frame)`.
//!
//! Measured timing still exists — it lands in the ledger's `#` notes,
//! which diffs ignore.

use super::ledger::{
    latency_class, pixel_digest, FrameOutcome, LedgerEntry, RunLedger, SubmitClass,
};
use super::trace::{StreamProfile, StreamTrace, Trace};
use crate::budget::LatencyBudget;
use crate::manager::ManagerConfig;
use crate::recovery::RecoveryPolicy;
use crate::service::{AdmissionPolicy, ServiceConfig, ServiceCore, ServiceReport};
use crate::session::{StreamResult, StreamSpec};
use platform::bus::{EventBus, FrameEvent, StreamId};
use platform::metrics::Observability;
use std::time::Instant;
use triplec::scenario::ScenarioScript;
use triplec::training::TaskSeries;
use triplec::triple::{TripleC, TripleCConfig};
use triplec::{FrameGeometry, Task};
use xray::{ScenarioConfig, SequenceConfig, SequenceGenerator};

/// Replays traces through the service tier.
pub struct TraceRunner {
    trace: Trace,
    service_cfg: ServiceConfig,
    obs: Option<Observability>,
    drift: Option<(f64, usize)>,
    admission: AdmissionPolicy,
    planning_quantile: Option<f64>,
}

impl TraceRunner {
    /// A runner over a parsed trace (virtual clock, default service
    /// configuration, p99 tail-driven admission).
    pub fn new(trace: Trace) -> Self {
        Self {
            trace,
            service_cfg: ServiceConfig::default(),
            obs: None,
            drift: None,
            admission: AdmissionPolicy::default(),
            planning_quantile: None,
        }
    }

    /// Overrides the admission policy every stream is scheduled under
    /// (the quantile of the predicted cost distribution that demand,
    /// placement and latency classification are computed from).
    #[must_use = "builders do nothing until `run()`"]
    pub fn with_admission(mut self, policy: AdmissionPolicy) -> Self {
        self.admission = policy;
        self
    }

    /// Overrides every stream's per-frame planning quantile (the point
    /// of the cost distribution the manager partitions against). Holding
    /// this fixed while varying [`with_admission`](Self::with_admission)
    /// isolates the grant-sizing decision: a frame is counted
    /// infeasible exactly when the planning-quantile cost cannot be
    /// held at the granted width.
    #[must_use = "builders do nothing until `run()`"]
    pub fn with_planning_quantile(mut self, quantile: f64) -> Self {
        self.planning_quantile = Some(quantile);
        self
    }

    /// Overrides the service-tier configuration.
    #[must_use = "builders do nothing until `run()`"]
    pub fn with_service_config(mut self, cfg: ServiceConfig) -> Self {
        self.service_cfg = cfg;
        self
    }

    /// Attaches observability: stream buses and the runner's own
    /// phase-marker bus feed the instance.
    #[must_use = "builders do nothing until `run()`"]
    pub fn with_observability(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Arms prediction-drift quarantine on every stream: when the
    /// Markov scenario prediction hit rate over the last `window` frames
    /// falls below `threshold`, the stream quarantines its model and
    /// retrains the scenario chain from recent observations.
    #[must_use = "builders do nothing until `run()`"]
    pub fn with_drift(mut self, threshold: f64, window: usize) -> Self {
        self.drift = Some((threshold, window));
        self
    }

    /// The trace being replayed.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Expands the trace into the service specs the replay will run —
    /// public so reference tests can run the identical specs through
    /// other schedulers (e.g. a serial session) and compare outputs.
    pub fn specs(&self) -> Vec<StreamSpec> {
        self.trace
            .streams
            .iter()
            .map(|s| self.spec_for(s))
            .collect()
    }

    fn spec_for(&self, s: &StreamTrace) -> StreamSpec {
        let seq = sequence_for(s);
        let app = pipeline::app::AppConfig {
            scenario_script: scenario_script_for(s),
            ..Default::default()
        };
        let model = synthetic_model(s);
        let mut builder = StreamSpec::builder(seq, app, model)
            .budget(LatencyBudget::new(s.budget_ms, 0.1))
            .admission(self.admission);
        if let Some(q) = self.planning_quantile {
            builder = builder.manager_cfg(ManagerConfig {
                planning_quantile: q,
                ..ManagerConfig::default()
            });
        }
        let mut recovery = RecoveryPolicy::default();
        if let Some((threshold, window)) = self.drift {
            recovery.drift_threshold = Some(threshold);
            recovery.drift_window = window;
        }
        builder = builder.recovery(recovery);
        if let Some(plan) = s.faults {
            builder = builder.faults(plan);
        }
        builder.build()
    }

    /// Replays the trace: spawns the service, submits every frame in
    /// global schedule order, and assembles the run ledger. Two runs of
    /// the same trace yield ledgers whose [`diff`](RunLedger::diff) is
    /// empty.
    pub fn run(self) -> ReplayReport {
        let specs = self.specs();
        let schedule = self.trace.schedule();

        // runner-side phase markers flow through their own bus
        let mut phase_bus = EventBus::default();
        if let Some(obs) = &self.obs {
            obs.attach(&mut phase_bus);
        }
        let mut core = ServiceCore::new(self.service_cfg);
        if let Some(obs) = &self.obs {
            core = core.with_observability(obs.clone());
        }
        let handle = core.spawn(specs);

        // per-stream frame sources, pulled lazily in index order
        let mut sources: Vec<SequenceGenerator> = self
            .trace
            .streams
            .iter()
            .map(|s| SequenceGenerator::new(sequence_for(s)))
            .collect();

        let t0 = Instant::now();
        let mut submits: Vec<SubmitClass> = Vec::with_capacity(schedule.len());
        for arrival in &schedule {
            let frame = sources[arrival.stream as usize]
                .next()
                .expect("schedule never outruns the sequence");
            debug_assert_eq!(frame.index, arrival.frame);
            phase_bus.emit(FrameEvent::TracePhase {
                stream: arrival.stream,
                frame: arrival.frame,
                phase: "submit",
            });
            let outcome = handle.submit(arrival.stream, arrival.frame, frame.image);
            submits.push(match outcome {
                crate::service::SubmitOutcome::Accepted => SubmitClass::Accepted,
                crate::service::SubmitOutcome::DroppedOldest => SubmitClass::DroppedOldest,
                crate::service::SubmitOutcome::Rejected
                | crate::service::SubmitOutcome::UnknownStream => SubmitClass::Rejected,
            });
        }
        phase_bus.emit(FrameEvent::TracePhase {
            stream: platform::bus::DEFAULT_STREAM,
            frame: schedule.len(),
            phase: "drain",
        });
        handle.close_all();
        let report = handle.finish();
        let replay_wall_ms = t0.elapsed().as_secs_f64() * 1000.0;

        let ledger = assemble_ledger(&self.trace, &schedule, &submits, &report, replay_wall_ms);
        ReplayReport { ledger, report }
    }
}

/// Result of one replay: the deterministic ledger plus the full service
/// report it was distilled from.
pub struct ReplayReport {
    /// The diffable run record.
    pub ledger: RunLedger,
    /// The underlying service report (wall times, metrics, service-tier
    /// statistics — the nondeterministic plane).
    pub report: ServiceReport,
}

fn sequence_for(s: &StreamTrace) -> SequenceConfig {
    let base = SequenceConfig {
        width: s.width,
        height: s.height,
        frames: s.frames,
        seed: s.seed,
        ..Default::default()
    };
    match s.profile {
        StreamProfile::Stent => base,
        StreamProfile::Surveillance => {
            // low-contrast content with a hidden-device episode mid-stream:
            // tracking is lost and re-acquired
            let mut scenario = ScenarioConfig::default();
            scenario.base_contrast *= 0.6;
            scenario.hidden = vec![xray::HiddenEpisode {
                start: s.frames / 3,
                len: (s.frames / 4).max(1),
            }];
            SequenceConfig { scenario, ..base }
        }
        StreamProfile::ZoomOnly => base,
    }
}

fn scenario_script_for(s: &StreamTrace) -> Option<ScenarioScript> {
    if !s.script.is_empty() {
        return Some(ScenarioScript::new(s.script.clone()));
    }
    match s.profile {
        // zoom-only service: registration always succeeds, nothing else
        StreamProfile::ZoomOnly => Some(ScenarioScript::hold(4, s.frames)),
        _ => None,
    }
}

/// A synthetic analytic prediction model: per-task cost series scaled by
/// frame area (quadratic tasks dominate) with a fixed triangular
/// fluctuation, scenario chain trained on a fixed cyclic sequence.
/// Entirely input-independent, so plans are deterministic and identical
/// across replays.
///
/// The fluctuation is what makes quantile admission meaningful: its
/// coefficient of variation (~0.12) and positive lag-1 autocorrelation
/// (~0.67) select the adaptive EWMA+Markov model class, whose residual
/// window spreads the predicted distribution so p99 > mean. Training
/// keeps the models frozen (online off), so the distribution — like the
/// mean before it — never moves during replay.
fn synthetic_model(s: &StreamTrace) -> TripleC {
    // per-megapixel base costs, ms (ordered as `Task::ALL`) — sized so the
    // full-service scenario at 96² predicts ~50 ms: tight trace budgets
    // genuinely engage striping and the over/tight/ok latency classes
    const BASE_MS_PER_MPIX: [f64; 9] = [
        2400.0, 300.0, 160.0, 500.0, 600.0, 200.0, 120.0, 800.0, 400.0,
    ];
    // one period of the triangular fluctuation, ±20 % around the base
    const WAVE: [f64; 8] = [-1.0, -0.5, 0.0, 0.5, 1.0, 0.5, 0.0, -0.5];
    const WAVE_AMP: f64 = 0.2;
    let mpix = (s.width * s.height) as f64 / 1.0e6;
    let series: Vec<TaskSeries> = Task::ALL
        .into_iter()
        .zip(BASE_MS_PER_MPIX)
        .map(|(task, base)| {
            let values: Vec<f64> = (0..64)
                .map(|i| base * mpix * (1.0 + WAVE_AMP * WAVE[i % WAVE.len()]))
                .collect();
            TaskSeries::new(task, values)
        })
        .collect();
    // dwelling blocks visit every scenario with dominant self-transitions:
    // the chain predicts "stay", so plans track the executing scenario and
    // a scripted storm produces genuinely varying plans (and, with drift
    // detection armed, genuine mispredictions)
    let scenarios: Vec<u8> = (0..8u8).flat_map(|s| [s; 6]).collect();
    let cfg = TripleCConfig {
        geometry: FrameGeometry {
            width: s.width,
            height: s.height,
        },
    };
    let mut model = TripleC::train(&series, &scenarios, cfg);
    model.set_online_training(false);
    model
}

fn assemble_ledger(
    trace: &Trace,
    schedule: &[super::trace::Arrival],
    submits: &[SubmitClass],
    report: &ServiceReport,
    replay_wall_ms: f64,
) -> RunLedger {
    let mut ledger = RunLedger::default();
    let by_stream = |id: StreamId| -> Option<&StreamResult> {
        report.session.streams.iter().find(|r| r.stream == id)
    };
    // executed-record position per (stream, frame)
    let record_pos = |id: StreamId, frame: usize| -> Option<usize> {
        by_stream(id)?
            .trace
            .records()
            .iter()
            .position(|r| r.frame == frame)
    };
    for (seq, (arrival, submit)) in schedule.iter().zip(submits).enumerate() {
        let budget_ms = trace.streams[arrival.stream as usize].budget_ms;
        let entry = match record_pos(arrival.stream, arrival.frame) {
            Some(k) => {
                let r = by_stream(arrival.stream).expect("stream has records");
                // classify against the cost the stream was actually
                // admitted on (the policy's quantile of the predicted
                // distribution), not the planning mean
                let planned = r.planned_cost_ms[k];
                LedgerEntry {
                    stream: arrival.stream,
                    frame: arrival.frame,
                    seq,
                    arrival_ms: arrival.at_ms,
                    submit: *submit,
                    outcome: FrameOutcome::Executed,
                    scenario: Some(r.trace.records()[k].scenario),
                    predicted_ms: Some(r.predictions[k]),
                    stripes: Some(r.stripes[k]),
                    class: latency_class(planned, budget_ms),
                    quantile: r.admission.label(),
                    digest: r.displays[k]
                        .as_ref()
                        .map(|img| pixel_digest(img.as_slice())),
                }
            }
            None => LedgerEntry {
                stream: arrival.stream,
                frame: arrival.frame,
                seq,
                arrival_ms: arrival.at_ms,
                submit: *submit,
                outcome: FrameOutcome::Dropped,
                scenario: None,
                predicted_ms: None,
                stripes: None,
                class: "-",
                quantile: "-".to_string(),
                digest: None,
            },
        };
        ledger.entries.push(entry);
    }
    for r in &report.session.streams {
        for key in r.fault_events.iter().filter_map(|e| e.replay_key()) {
            ledger.faults.push(key);
        }
    }
    for f in &report.session.failures {
        ledger
            .notes
            .push(format!("failure s{}: {}", f.stream, f.message));
    }
    for r in &report.session.streams {
        ledger
            .notes
            .push(format!("wall_ms s{} {:.1}", r.stream, r.wall_ms));
    }
    for r in &report.session.streams {
        let c = r.calibration;
        if c.frames > 0 {
            ledger.notes.push(format!(
                "calibration s{} frames={} p50={:.3} p95={:.3} p99={:.3}",
                r.stream, c.frames, c.p50_coverage, c.p95_coverage, c.p99_coverage
            ));
        }
    }
    ledger
        .notes
        .push(format!("replay_wall_ms {replay_wall_ms:.1}"));
    ledger
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::trace::TraceError;

    fn small_trace() -> Trace {
        Trace::parse(
            "triplec-trace v1\n\
             stream 0 profile=stent width=96 height=96 frames=5 seed=21 budget_ms=200\n\
             arrival 0 fixed period_ms=10\n\
             stream 1 profile=zoom_only width=64 height=64 frames=4 seed=22 budget_ms=200\n\
             arrival 1 burst period_ms=5 burst_len=2 gap_ms=30\n",
        )
        .unwrap()
    }

    #[test]
    fn replay_is_ledger_deterministic() {
        let a = TraceRunner::new(small_trace()).run();
        let b = TraceRunner::new(small_trace()).run();
        let diff = a.ledger.diff(&b.ledger.to_text());
        assert!(diff.is_empty(), "replay diverged: {diff:?}");
        assert_eq!(a.ledger.entries.len(), 9);
    }

    #[test]
    fn zoom_only_profile_reports_scenario_4() {
        let out = TraceRunner::new(small_trace()).run();
        for e in out.ledger.entries.iter().filter(|e| e.stream == 1) {
            assert_eq!(e.scenario, Some(4), "frame {}", e.frame);
            assert!(e.digest.is_some(), "zoom-only frames always display");
        }
    }

    #[test]
    fn synthetic_models_make_deterministic_predictions() {
        // a plan is made before its frame runs, from the previous frame's
        // scenario (the dwelling chain predicts "stay"): equal predecessors
        // must yield equal plans
        let t = small_trace();
        let out = TraceRunner::new(t).run();
        let frames: Vec<(Option<u8>, f64)> = {
            let mut prev: Option<u8> = None;
            out.ledger
                .entries
                .iter()
                .filter(|e| e.stream == 0)
                .map(|e| {
                    let pair = (prev, e.predicted_ms.expect("clean run executes"));
                    prev = e.scenario;
                    pair
                })
                .collect()
        };
        for (prev_a, pred_a) in &frames {
            for (prev_b, pred_b) in &frames {
                if prev_a == prev_b {
                    assert_eq!(pred_a, pred_b, "same predecessor, same plan");
                }
            }
        }
    }

    #[test]
    fn runner_rejects_nothing_it_parsed() {
        // guard: the runner's own sample must stay parseable
        assert!(matches!(
            Trace::parse("triplec-trace v1\nnothing 0\n"),
            Err(TraceError::Syntax { .. })
        ));
    }
}
