//! Stream specifications and results: what goes into and comes out of
//! one imaging stream.
//!
//! An interventional X-ray suite can host several simultaneous imaging
//! streams (biplane acquisition, multiple exam rooms sharing a
//! reconstruction server). A [`StreamSpec`] describes one stream — input
//! sequence, application configuration, its own trained model and
//! resource-management parameters. A
//! [`StreamEngine`](crate::service::StreamEngine) turns it into a
//! [`StreamResult`] frame by frame, and the
//! [`ServiceCore`](crate::service::ServiceCore) schedules many of them
//! against a shared core budget, collecting a [`SessionReport`].
//!
//! Stream outputs are bit-identical however the stream was scheduled:
//! pixel results depend only on the input sequence and the application
//! configuration, never on the partitioning policy or on measured timing
//! (the property the striping tests establish per task).

use crate::budget::LatencyBudget;
use crate::faults::FaultPlan;
use crate::manager::{CalibrationSnapshot, ManagerConfig};
use crate::recovery::RecoveryPolicy;
use crate::service::admission::AdmissionPolicy;
use imaging::image::ImageU16;
use pipeline::app::AppConfig;
use platform::bus::{FrameEvent, StreamId};
use platform::metrics::MetricsSnapshot;
use platform::trace::TraceLog;
use triplec::accuracy::AccuracyReport;
use triplec::triple::TripleC;
use xray::SequenceConfig;

/// Everything needed to run one stream: its input sequence, application
/// configuration, trained model, and resource-management parameters.
pub struct StreamSpec {
    /// The input sequence.
    pub seq: SequenceConfig,
    /// Application (task-graph) configuration.
    pub app: AppConfig,
    /// Trained prediction model (each stream gets its own instance).
    pub model: TripleC,
    /// Manager parameters; `cores` is overwritten by the scheduler's
    /// grant.
    pub manager_cfg: ManagerConfig,
    /// Fixed per-stream latency budget (None = initialize from the first
    /// frame, the paper's default).
    pub budget: Option<LatencyBudget>,
    /// Fault-injection plan. `None` (the default) arms nothing: the
    /// stream never drops a frame and records no fault-family event.
    pub faults: Option<FaultPlan>,
    /// Degradation policy. Stage retry (for genuine pool faults) and
    /// drift quarantine apply to every stream; corruption quarantine only
    /// acts when `faults` is set.
    pub recovery: RecoveryPolicy,
    /// Which point of the predicted cost distribution admission and
    /// shard placement size this stream's core grant against (default:
    /// p99 — tail-driven admission).
    pub admission: AdmissionPolicy,
    /// Quality-of-service control (off by default: every frame runs at
    /// full quality); see [`StreamSpecBuilder::qos`].
    pub qos: bool,
}

impl StreamSpec {
    /// Starts building a spec from its three required ingredients; every
    /// other knob defaults (management parameters from the platform's
    /// [`ArchModel`](platform::arch::ArchModel), no faults).
    pub fn builder(seq: SequenceConfig, app: AppConfig, model: TripleC) -> StreamSpecBuilder {
        StreamSpecBuilder {
            spec: Self {
                seq,
                app,
                model,
                manager_cfg: ManagerConfig::default(),
                budget: None,
                faults: None,
                recovery: RecoveryPolicy::default(),
                admission: AdmissionPolicy::default(),
                qos: false,
            },
        }
    }
}

/// Typed builder for [`StreamSpec`] (from [`StreamSpec::builder`]).
#[must_use = "builders do nothing until `build()` is called"]
pub struct StreamSpecBuilder {
    spec: StreamSpec,
}

impl StreamSpecBuilder {
    /// Overrides the resource-management parameters.
    pub fn manager_cfg(mut self, cfg: ManagerConfig) -> Self {
        self.spec.manager_cfg = cfg;
        self
    }

    /// Fixes the latency budget instead of initializing it from the
    /// first frame.
    pub fn budget(mut self, budget: LatencyBudget) -> Self {
        self.spec.budget = Some(budget);
        self
    }

    /// Arms deterministic fault injection with the given plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.spec.faults = Some(plan);
        self
    }

    /// Overrides the degradation policy used on the recovering path.
    pub fn recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.spec.recovery = recovery;
        self
    }

    /// Overrides the admission policy (which point of the predicted cost
    /// distribution the scheduler sizes the stream's grant against).
    pub fn admission(mut self, policy: AdmissionPolicy) -> Self {
        self.spec.admission = policy;
        self
    }

    /// Turns on quality-of-service control: when no partitioning holds
    /// the budget, the stream trades algorithmic quality (fine RDG
    /// scales, then zoom resolution) for latency, and sustained frames
    /// well inside the budget restore it.
    pub fn qos(mut self) -> Self {
        self.spec.qos = true;
        self
    }

    /// Finishes the spec.
    pub fn build(self) -> StreamSpec {
        self.spec
    }
}

/// A stream that could not complete: an unrecoverable frame failure
/// (surfaced as an error) or a panicking stream thread (caught at join).
#[derive(Debug, Clone)]
pub struct StreamFailure {
    /// The failed stream.
    pub stream: StreamId,
    /// Human-readable cause.
    pub message: String,
    /// Frames that completed before the failure.
    pub frames_completed: usize,
}

impl std::fmt::Display for StreamFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "stream {} failed after {} frames: {}",
            self.stream, self.frames_completed, self.message
        )
    }
}

impl std::error::Error for StreamFailure {}

/// Extracts a readable message from a caught thread-panic payload.
pub(crate) fn panic_payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Result of one finished stream.
pub struct StreamResult {
    /// Stream id.
    pub stream: StreamId,
    /// Cores the stream could stripe over.
    pub cores: usize,
    /// Per-frame execution records (measured latency).
    pub trace: TraceLog,
    /// Predicted serial computation time per frame, ms (the planning
    /// mean the manager budgeted against).
    pub predictions: Vec<f64>,
    /// Per-frame scheduling cost under the stream's [`AdmissionPolicy`]
    /// (the policy's point of the predicted distribution), ms. Same
    /// length as `predictions`.
    pub planned_cost_ms: Vec<f64>,
    /// The admission policy the stream ran under.
    pub admission: AdmissionPolicy,
    /// RDG stripe count chosen per frame.
    pub stripes: Vec<usize>,
    /// Output image per frame (None when registration had not succeeded).
    pub displays: Vec<Option<ImageU16>>,
    /// Host wall-clock time per frame, ms.
    pub frame_wall_ms: Vec<f64>,
    /// Host wall-clock time of the whole stream, ms.
    pub wall_ms: f64,
    /// Frame-level prediction accuracy (Section 7 metric).
    pub accuracy: AccuracyReport,
    /// Observed coverage of the predicted p50/p95/p99 quantiles over the
    /// stream's executed frames (measured — nondeterministic plane).
    pub calibration: CalibrationSnapshot,
    /// Frames whose budget was infeasible even fully parallel.
    pub infeasible_frames: usize,
    /// Frames that ran below full quality (always 0 without
    /// [`StreamSpecBuilder::qos`]).
    pub degraded_frames: usize,
    /// The latency budget in force when the stream finished (fixed by the
    /// spec or initialized from the first frame; `None` when no frame
    /// executed).
    pub budget: Option<LatencyBudget>,
    /// Frames dropped at the input by fault injection (never executed).
    pub dropped_frames: usize,
    /// Fault-family events ([`FrameEvent::replay_key`] is `Some`) the
    /// stream emitted, in emission order, with or without a fault plan:
    /// drift quarantine and a genuine pool fault's recovery need none.
    pub fault_events: Vec<FrameEvent>,
}

impl StreamResult {
    /// p99 of the per-frame host wall-clock times, ms (nearest-rank).
    pub fn p99_wall_ms(&self) -> f64 {
        platform::metrics::percentile(&self.frame_wall_ms, 0.99)
    }
}

/// Result of a whole session.
pub struct SessionReport {
    /// Per-stream results, ordered by stream id.
    pub streams: Vec<StreamResult>,
    /// Streams that did not complete (unrecoverable frame failures or
    /// caught thread panics), ordered by stream id.
    pub failures: Vec<StreamFailure>,
    /// Host wall-clock time of the whole session, ms.
    pub wall_ms: f64,
    /// Frames executed across all streams.
    pub total_frames: usize,
    /// Aggregate throughput across streams, frames per second.
    pub aggregate_fps: f64,
    /// Point-in-time metrics dump, present when the scheduler ran with
    /// [`ServiceCore::with_observability`](crate::service::ServiceCore::with_observability).
    pub metrics: Option<MetricsSnapshot>,
}

impl SessionReport {
    /// True when every stream completed.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ServiceCore, ShardLayout, StreamEngine};
    use crate::test_support::{seq, trained_model};
    use platform::bus::{DegradeMode, FaultKind};

    fn run(specs: Vec<StreamSpec>) -> SessionReport {
        run_with(ServiceConfig::default(), specs)
    }

    /// Batch-runs on one shard over the global pool, so a tight-budget
    /// stream is granted up to the whole core budget and stripes on the
    /// shared pool.
    fn run_with(cfg: ServiceConfig, specs: Vec<StreamSpec>) -> SessionReport {
        ServiceCore::new(ServiceConfig {
            layout: ShardLayout::Single,
            ..cfg
        })
        .run_batch(specs)
        .session
    }

    #[test]
    fn two_streams_round_trip_with_queueing() {
        // force queueing: budget of 2 cores, max 1 concurrent stream
        let cfg = ServiceConfig {
            total_cores: 2,
            max_concurrent: 1,
            ..Default::default()
        };
        let specs = vec![
            StreamSpec::builder(seq(102, 4), AppConfig::default(), trained_model()).build(),
            StreamSpec::builder(seq(103, 5), AppConfig::default(), trained_model()).build(),
        ];
        let report = run_with(cfg, specs);
        assert_eq!(report.streams.len(), 2);
        assert_eq!(report.streams[0].stream, 0);
        assert_eq!(report.streams[1].stream, 1);
        assert_eq!(report.streams[0].trace.len(), 4);
        assert_eq!(report.streams[1].trace.len(), 5);
        // no fixed budget: each stream enters with the minimal grant
        assert_eq!(report.streams[0].cores, 1);
        assert_eq!(report.streams[1].cores, 1);
        assert_eq!(report.total_frames, 9);
    }

    use crate::faults::FaultPlanConfig;
    use pipeline::executor::StageRetry;

    /// A plan of one fault kind, with the frames of stream 0 it hits
    /// among the first `frames` (its precondition in the tests below).
    fn plan_hitting(
        seed: u64,
        cfg: FaultPlanConfig,
        frames: usize,
        hits: impl Fn(&FaultPlan, usize) -> bool,
    ) -> (FaultPlan, Vec<usize>) {
        let plan = FaultPlan::new(seed, cfg);
        let hit = (0..frames).filter(|&f| hits(&plan, f)).collect();
        (plan, hit)
    }

    fn generous_budget() -> LatencyBudget {
        LatencyBudget::new(10_000.0, 0.1)
    }

    #[test]
    fn faulted_session_recovers_with_outputs_matching_nominal() {
        let nominal = StreamSpec::builder(seq(110, 8), AppConfig::default(), trained_model())
            .budget(generous_budget())
            .build();
        let clean = StreamEngine::new(0, nominal, 1)
            .run()
            .expect("nominal run is clean");

        let plan = FaultPlan::new(
            99,
            FaultPlanConfig {
                panic_rate: 0.5,
                channel_rate: 0.3,
                ..Default::default()
            },
        );
        // tight budget: plans stripe aggressively, so armed pool faults
        // actually reach the stripe dispatch (pixel outputs stay
        // bit-identical to the serial nominal run regardless)
        let spec = StreamSpec::builder(seq(110, 8), AppConfig::default(), trained_model())
            .faults(plan)
            .budget(LatencyBudget::new(5.0, 0.1))
            .build();
        let faulted = run(vec![spec]);
        assert!(faulted.is_clean(), "failures: {:?}", faulted.failures);

        let a = &clean;
        let b = &faulted.streams[0];
        assert_eq!(a.trace.scenarios(), b.trace.scenarios());
        assert_eq!(
            a.displays, b.displays,
            "pixel outputs diverged under faults"
        );
        assert_eq!(b.dropped_frames, 0);

        // every injection got a terminal event on its stream+frame
        for e in &b.fault_events {
            if let FrameEvent::FaultInjected { stream, frame, .. } = *e {
                let terminal = b.fault_events.iter().any(|t| {
                    matches!(t,
                        FrameEvent::Recovered { stream: s, frame: f, .. }
                        | FrameEvent::DegradedMode { stream: s, frame: f, .. }
                        if *s == stream && *f == frame)
                });
                assert!(terminal, "no terminal event for {e:?}");
            }
        }
    }

    #[test]
    fn faulted_session_replays_event_for_event() {
        let run_once = || {
            let plan = FaultPlan::new(
                1234,
                FaultPlanConfig {
                    panic_rate: 0.4,
                    channel_rate: 0.4,
                    drop_rate: 0.2,
                    corrupt_rate: 0.3,
                    ..Default::default()
                },
            );
            let spec = StreamSpec::builder(seq(111, 10), AppConfig::default(), trained_model())
                .faults(plan)
                .budget(generous_budget())
                .build();
            let report = run(vec![spec]);
            assert!(report.is_clean());
            report.streams[0]
                .fault_events
                .iter()
                .filter_map(|e| e.replay_key())
                .collect::<Vec<String>>()
        };
        let first = run_once();
        let second = run_once();
        assert!(!first.is_empty(), "plan injected nothing");
        assert_eq!(first, second, "replay diverged");
    }

    #[test]
    fn dropped_frames_are_skipped_counted_and_evented() {
        let drops = FaultPlanConfig {
            drop_rate: 0.3,
            ..Default::default()
        };
        let (plan, dropped) = plan_hitting(24, drops, 6, |p, f| p.drops_frame(0, f));
        assert_eq!(dropped, [1, 3]);
        let spec = StreamSpec::builder(seq(112, 6), AppConfig::default(), trained_model())
            .faults(plan)
            .budget(generous_budget())
            .build();
        let report = run(vec![spec]);
        let s = &report.streams[0];
        assert_eq!(s.dropped_frames, 2);
        assert_eq!(s.trace.len(), 4);
        assert_eq!(s.displays.len(), 4);
        let drops = s
            .fault_events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FrameEvent::FaultInjected {
                        kind: FaultKind::FrameDrop,
                        ..
                    }
                )
            })
            .count();
        let degraded = s
            .fault_events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    FrameEvent::DegradedMode {
                        mode: DegradeMode::OutputDropped,
                        cause: FaultKind::FrameDrop,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(drops, 2);
        assert_eq!(degraded, 2);
    }

    #[test]
    fn corrupted_snapshot_quarantines_then_retrains() {
        let corrupts = FaultPlanConfig {
            corrupt_rate: 0.2,
            ..Default::default()
        };
        let (plan, corrupted) = plan_hitting(1, corrupts, 8, |p, f| p.corrupts_snapshot(0, f));
        assert_eq!(corrupted, [2]);
        let mut model = trained_model();
        model.set_online_training(true);
        let spec = StreamSpec::builder(seq(113, 8), AppConfig::default(), model)
            .faults(plan)
            .budget(generous_budget())
            .build();
        let report = run(vec![spec]);
        assert!(report.is_clean());
        let keys: Vec<String> = report.streams[0]
            .fault_events
            .iter()
            .filter_map(|e| e.replay_key())
            .collect();
        assert!(
            keys.contains(&"s0/f2/inject/snapshot-corruption".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"s0/f2/degraded/model-quarantine<-snapshot-corruption".to_string()),
            "{keys:?}"
        );
        assert!(
            keys.contains(&"s0/f4/recovered/snapshot-corruption#0".to_string()),
            "quarantine never lifted: {keys:?}"
        );
    }

    #[test]
    fn failing_stream_surfaces_as_error_without_harming_siblings() {
        let pool = imaging::parallel::StripePool::global();
        let threads_before = pool.live_threads();

        // stream 0: unrecoverable (a channel fault on every frame, no
        // retry, no serial fallback); stream 1: healthy
        let storm = FaultPlan::new(
            3,
            FaultPlanConfig {
                channel_rate: 1.0,
                ..Default::default()
            },
        );
        let doomed = StreamSpec::builder(seq(114, 6), AppConfig::default(), trained_model())
            .faults(storm)
            .recovery(RecoveryPolicy {
                retry: StageRetry {
                    max_retries: 0,
                    serial_fallback: false,
                },
                ..Default::default()
            })
            .budget(LatencyBudget::new(0.001, 0.0)) // force striping
            .build();
        let healthy =
            StreamSpec::builder(seq(115, 6), AppConfig::default(), trained_model()).build();

        let report = run(vec![doomed, healthy]);
        assert_eq!(report.failures.len(), 1, "failures: {:?}", report.failures);
        assert_eq!(report.failures[0].stream, 0);
        assert!(report.failures[0].message.contains("failed after retries"));
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].stream, 1);
        assert_eq!(report.streams[0].trace.len(), 6);
        assert_eq!(pool.live_threads(), threads_before, "pool lost workers");
    }

    #[test]
    fn panicking_stream_thread_is_caught_at_join() {
        // a zero probe block trips `structure_probe`'s assertion on the
        // stream's first frame
        let app = AppConfig {
            probe_block: 0,
            ..AppConfig::default()
        };
        let doomed = StreamSpec::builder(seq(116, 6), app, trained_model()).build();
        let healthy =
            StreamSpec::builder(seq(117, 5), AppConfig::default(), trained_model()).build();
        let report = run(vec![doomed, healthy]);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].stream, 0);
        assert!(
            report.failures[0].message.contains("block > 0"),
            "{}",
            report.failures[0].message
        );
        assert_eq!(report.failures[0].frames_completed, 0);
        assert_eq!(report.streams.len(), 1);
        assert_eq!(report.streams[0].trace.len(), 5);
    }

    /// QoS runs inside the engine's own step, so a scheduled stream
    /// degrades exactly as a bare engine does.
    #[test]
    fn service_tier_runs_qos_like_a_bare_engine() {
        let spec = || {
            StreamSpec::builder(seq(106, 10), AppConfig::default(), trained_model())
                .budget(LatencyBudget::new(0.001, 0.1))
                .qos()
                .build()
        };
        let bare = StreamEngine::new(0, spec(), 2).run().unwrap();
        let report = run(vec![spec()]);
        assert!(report.is_clean(), "failures: {:?}", report.failures);
        let served = &report.streams[0];
        assert_eq!(bare.degraded_frames, 7);
        assert_eq!(served.degraded_frames, bare.degraded_frames);
        assert_eq!(served.displays, bare.displays);
    }

    #[test]
    fn per_stream_p99_is_reported() {
        let spec = StreamSpec::builder(seq(106, 8), AppConfig::default(), trained_model()).build();
        let report = run(vec![spec]);
        let s = &report.streams[0];
        assert_eq!(s.frame_wall_ms.len(), 8);
        let p99 = s.p99_wall_ms();
        let max = s.frame_wall_ms.iter().cloned().fold(0.0, f64::max);
        assert!(p99 > 0.0 && p99 <= max, "p99 {p99} max {max}");
    }
}
