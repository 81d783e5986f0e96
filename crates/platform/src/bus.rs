//! The typed frame-event bus.
//!
//! Every layer of the prediction→execution→management stack emits
//! structured events onto an [`EventBus`]: the resource manager announces
//! plans and budget violations, the pipeline executor announces executed
//! frames and the striped stages they ran.
//! Subscribers observe the full event stream; the accuracy bookkeeping of
//! Section 7 is itself just a subscriber (it replaced the manager's
//! former internal `(predicted, actual)` vector).
//!
//! Event payloads are plain data (ids and numbers, no cross-crate types),
//! so the bus can live at the bottom of the dependency graph and every
//! layer above can emit onto it.

use crate::task::Task;

/// Identifier of one imaging stream within a session.
pub type StreamId = u32;

/// The stream id used by single-stream runs (the classic one-sequence
/// experiments of the paper).
pub const DEFAULT_STREAM: StreamId = 0;

/// Classes of faults the deterministic fault-injection layer can arm
/// (`runtime::faults`), plus [`FaultKind::PredictionDrift`], the one
/// genuine, non-injected cause that triggers the same recovery machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A stripe-pool worker job panicked.
    WorkerPanic,
    /// A stage's execution time was artificially inflated.
    StageDelay,
    /// A frame's output was dropped.
    FrameDrop,
    /// A model snapshot was corrupted before restore.
    SnapshotCorruption,
    /// A transient stripe-pool channel error.
    ChannelError,
    /// Not injected: scenario-prediction accuracy collapsed against the
    /// observed scenario stream (the model-quarantine/re-train trigger
    /// under scenario storms).
    PredictionDrift,
}

impl FaultKind {
    /// Stable short name (used in replay keys and reports).
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::StageDelay => "stage-delay",
            FaultKind::FrameDrop => "frame-drop",
            FaultKind::SnapshotCorruption => "snapshot-corruption",
            FaultKind::ChannelError => "channel-error",
            FaultKind::PredictionDrift => "prediction-drift",
        }
    }
}

/// How a stream degraded when recovery could not restore full service.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DegradeMode {
    /// Striped execution fell back to the bit-identical serial path.
    SerialFallback,
    /// The frame's display output was suppressed (internal state still
    /// advanced, so subsequent frames are unaffected).
    OutputDropped,
    /// The prediction model was quarantined (restored to last good
    /// state, online re-training enabled).
    ModelQuarantine,
}

impl DegradeMode {
    /// Stable short name (used in replay keys and reports).
    pub fn name(&self) -> &'static str {
        match self {
            DegradeMode::SerialFallback => "serial-fallback",
            DegradeMode::OutputDropped => "output-dropped",
            DegradeMode::ModelQuarantine => "model-quarantine",
        }
    }
}

/// Why the resource manager changed the partitioning between consecutive
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RepartitionReason {
    /// The predicted cost rose against the budget: more stripes.
    BudgetPressure,
    /// The predicted cost relaxed against the budget: fewer stripes.
    BudgetRelief,
}

impl RepartitionReason {
    /// Stable short name (used in metric labels and trace args).
    pub fn name(&self) -> &'static str {
        match self {
            RepartitionReason::BudgetPressure => "budget-pressure",
            RepartitionReason::BudgetRelief => "budget-relief",
        }
    }
}

/// One typed event on the frame bus.
#[derive(Debug, Clone, PartialEq)]
pub enum FrameEvent {
    /// The resource manager issued an execution plan for an upcoming
    /// frame (`runtime::manager`).
    PlanIssued {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Predicted scenario id (0..8).
        scenario: u8,
        /// Predicted serial computation time, ms.
        predicted_total_ms: f64,
        /// Chosen stripe count (RDG, MKX EXT's and GW EXT's sweeps).
        stripes: usize,
        /// Whether the latency budget was achievable.
        feasible: bool,
    },
    /// The predictor produced the upcoming frame's scenario and cost
    /// estimates (`runtime::manager`): the measured cost of prediction
    /// itself, so the observability layer can account for what the
    /// predictors cost the hot path.
    PredictionIssued {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Predicted scenario id (0..8).
        scenario: u8,
        /// Host wall-clock time spent predicting, microseconds.
        cost_us: f64,
    },
    /// The chosen partitioning changed between consecutive frames: a
    /// runtime repartition fired (`runtime::manager` on budget pressure
    /// or relief).
    RepartitionDecided {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Stripe count before the repartition.
        from_stripes: usize,
        /// Stripe count after the repartition.
        to_stripes: usize,
        /// Why the partitioning changed.
        reason: RepartitionReason,
    },
    /// A data-parallel stage of more than one band ran on the worker pool
    /// (`pipeline::executor`).
    StageExecuted {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// The stage's task (its name is the per-stage metric/span label).
        task: Task,
        /// Number of parallel jobs in the stage.
        jobs: usize,
        /// Sum of the per-band times (the serial cost), ms.
        serial_ms: f64,
        /// Measured wall time of the stage's dispatch, ms.
        makespan_ms: f64,
    },
    /// A frame finished executing (`pipeline::executor` via the managed
    /// loop): the prediction/actual pair of the Section 7 accuracy
    /// metrics.
    FrameExecuted {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Executed scenario id.
        scenario: u8,
        /// Predicted serial computation time, ms.
        predicted_total_ms: f64,
        /// Measured serial computation time, ms.
        actual_total_ms: f64,
        /// Measured frame latency (wall time), ms.
        latency_ms: f64,
    },
    /// A frame's measured latency exceeded the stream's budget.
    BudgetOverrun {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Measured frame latency, ms.
        latency_ms: f64,
        /// The budget target it violated, ms.
        budget_ms: f64,
    },
    /// The QoS controller changed the algorithmic quality level.
    QosIntervention {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// New quality level (0 = full quality, higher = more degraded).
        level: u8,
    },
    /// Measured task times were fed back into the prediction model
    /// (Section 6 "Profiling" / on-line model training).
    ModelRetrained {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// Number of task observations absorbed this frame.
        observations: usize,
    },
    /// The fault layer armed a fault for this frame
    /// (`runtime::faults`). Every `FaultInjected` is matched, on the same
    /// stream and frame, by a terminal [`FrameEvent::Recovered`] or
    /// [`FrameEvent::DegradedMode`] event.
    FaultInjected {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// What was injected.
        kind: FaultKind,
    },
    /// A degradation policy retried a failed stage.
    RetryAttempted {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// The fault being retried against.
        kind: FaultKind,
        /// 1-based retry attempt number.
        attempt: u32,
    },
    /// Recovery could not restore full service; the stream degraded
    /// gracefully instead of failing. A terminal event for its fault.
    DegradedMode {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// How service degraded.
        mode: DegradeMode,
        /// The fault (or genuine condition) that caused it.
        cause: FaultKind,
    },
    /// A fault was fully absorbed: the frame (or stream state) is back to
    /// nominal service. A terminal event for its fault.
    Recovered {
        /// Emitting stream.
        stream: StreamId,
        /// Frame index within the stream.
        frame: usize,
        /// The fault that was recovered from.
        kind: FaultKind,
        /// Retry attempts it took (0 = absorbed without retrying).
        attempts: u32,
    },
    /// A stream's first turn in the service tier (`runtime::service`): its
    /// predicted core demand was granted on a pool shard. Fires once per
    /// stream; later turns are granted without an event.
    StreamAdmitted {
        /// Admitted stream.
        stream: StreamId,
        /// Next frame index the stream will execute.
        frame: usize,
        /// Shard of the first turn.
        shard: usize,
        /// Cores granted on that shard, for each turn.
        cores: usize,
        /// Wall-clock time from registration to the first turn, ms.
        queued_ms: f64,
        /// The rank key the stream was chosen on: its predicted remaining
        /// work, ms (the least among the streams ready at the time).
        remaining_ms: f64,
    },
    /// A stream still waiting for its first turn when the scheduler gave a
    /// turn to another stream. Fires once per stream.
    StreamQueued {
        /// Queued stream.
        stream: StreamId,
        /// Next frame index the stream will execute once admitted.
        frame: usize,
        /// Streams waiting for their first turn at that pick (including
        /// this one).
        depth: usize,
    },
    /// A stepping stream parked at its time-slice quantum for a waiting
    /// stream with less predicted remaining work, giving its worker and
    /// its cores up. Execution resumes exactly at `frame` on a later turn.
    StreamEvicted {
        /// Pre-empted stream.
        stream: StreamId,
        /// Next frame index the stream will execute on its next turn.
        frame: usize,
        /// Shard of the turn it gave up.
        shard: usize,
        /// The waiting stream that outranked it.
        by: StreamId,
    },
    /// A turn landed on a different shard than the stream's previous turn:
    /// a migration across core groups.
    ShardRebalanced {
        /// Migrated stream.
        stream: StreamId,
        /// Next frame index the stream will execute on the new shard.
        frame: usize,
        /// Shard of the stream's previous turn.
        from_shard: usize,
        /// Shard of this turn.
        to_shard: usize,
    },
    /// A trace-driven workload replay crossed a phase boundary
    /// (`runtime::workload`): arrival-schedule segments, scenario-storm
    /// onsets and trace completion, labelled so metrics and trace spans
    /// can be sliced per workload phase.
    TracePhase {
        /// Stream the phase applies to (`DEFAULT_STREAM` for whole-trace
        /// phases).
        stream: StreamId,
        /// Frame index at which the phase begins on that stream.
        frame: usize,
        /// Stable phase label (e.g. `"submit"`, `"storm"`, `"drain"`).
        phase: &'static str,
    },
    /// Periodic quantile-calibration scorecard: the observed fraction of
    /// frames whose actual serial time fell at or below the predicted
    /// p50/p95/p99 (a perfectly calibrated predictor scores 0.50 / 0.95 /
    /// 0.99; the scheduler's tail-admission guarantees rest on p95/p99
    /// coverage staying near target).
    CalibrationReport {
        /// Stream the scorecard covers.
        stream: StreamId,
        /// Frame index at which the report was cut.
        frame: usize,
        /// Frames scored since the stream started.
        frames: u32,
        /// Observed coverage of the predicted p50.
        p50_cov: f64,
        /// Observed coverage of the predicted p95.
        p95_cov: f64,
        /// Observed coverage of the predicted p99.
        p99_cov: f64,
    },
}

impl FrameEvent {
    /// The stream that emitted the event.
    pub fn stream(&self) -> StreamId {
        match *self {
            FrameEvent::PlanIssued { stream, .. }
            | FrameEvent::PredictionIssued { stream, .. }
            | FrameEvent::RepartitionDecided { stream, .. }
            | FrameEvent::StageExecuted { stream, .. }
            | FrameEvent::FrameExecuted { stream, .. }
            | FrameEvent::BudgetOverrun { stream, .. }
            | FrameEvent::QosIntervention { stream, .. }
            | FrameEvent::ModelRetrained { stream, .. }
            | FrameEvent::FaultInjected { stream, .. }
            | FrameEvent::RetryAttempted { stream, .. }
            | FrameEvent::DegradedMode { stream, .. }
            | FrameEvent::Recovered { stream, .. }
            | FrameEvent::StreamAdmitted { stream, .. }
            | FrameEvent::StreamQueued { stream, .. }
            | FrameEvent::StreamEvicted { stream, .. }
            | FrameEvent::ShardRebalanced { stream, .. }
            | FrameEvent::TracePhase { stream, .. }
            | FrameEvent::CalibrationReport { stream, .. } => stream,
        }
    }

    /// The frame index the event refers to.
    pub fn frame(&self) -> usize {
        match *self {
            FrameEvent::PlanIssued { frame, .. }
            | FrameEvent::PredictionIssued { frame, .. }
            | FrameEvent::RepartitionDecided { frame, .. }
            | FrameEvent::StageExecuted { frame, .. }
            | FrameEvent::FrameExecuted { frame, .. }
            | FrameEvent::BudgetOverrun { frame, .. }
            | FrameEvent::QosIntervention { frame, .. }
            | FrameEvent::ModelRetrained { frame, .. }
            | FrameEvent::FaultInjected { frame, .. }
            | FrameEvent::RetryAttempted { frame, .. }
            | FrameEvent::DegradedMode { frame, .. }
            | FrameEvent::Recovered { frame, .. }
            | FrameEvent::StreamAdmitted { frame, .. }
            | FrameEvent::StreamQueued { frame, .. }
            | FrameEvent::StreamEvicted { frame, .. }
            | FrameEvent::ShardRebalanced { frame, .. }
            | FrameEvent::TracePhase { frame, .. }
            | FrameEvent::CalibrationReport { frame, .. } => frame,
        }
    }

    /// Canonical replay string for fault-family events, `None` for all
    /// others.
    ///
    /// Timing-carrying events (plans, frame times, overruns) depend on
    /// measured wall-clock durations and are *not* reproducible across
    /// runs; the fault family is built exclusively from discrete seeded
    /// state, so two runs with the same seed produce the same replay-key
    /// sequence per stream — the property the seed-replay recipe and
    /// reproducibility tests assert on. Service-tier placement events
    /// (admission/queueing/eviction/rebalance) are likewise excluded:
    /// admission order depends on wall-clock completion order, while the
    /// fault layer keys off absolute `(stream, frame)` coordinates and so
    /// replays identically however streams are placed.
    /// [`FrameEvent::TracePhase`] is schedule-derived and deterministic,
    /// but the workload ledger records phases through its own keyspace,
    /// so replay keys stay exclusively the fault family.
    /// [`FrameEvent::CalibrationReport`] scores measured frame times and
    /// is therefore as timing-dependent as the plan events: no key.
    pub fn replay_key(&self) -> Option<String> {
        match *self {
            FrameEvent::FaultInjected {
                stream,
                frame,
                kind,
            } => Some(format!("s{stream}/f{frame}/inject/{}", kind.name())),
            FrameEvent::RetryAttempted {
                stream,
                frame,
                kind,
                attempt,
            } => Some(format!(
                "s{stream}/f{frame}/retry/{}#{attempt}",
                kind.name()
            )),
            FrameEvent::DegradedMode {
                stream,
                frame,
                mode,
                cause,
            } => Some(format!(
                "s{stream}/f{frame}/degraded/{}<-{}",
                mode.name(),
                cause.name()
            )),
            FrameEvent::Recovered {
                stream,
                frame,
                kind,
                attempts,
            } => Some(format!(
                "s{stream}/f{frame}/recovered/{}#{attempts}",
                kind.name()
            )),
            _ => None,
        }
    }
}

/// An event-bus subscriber.
pub trait Subscriber: Send {
    /// Observes one event. Called synchronously on the emitting thread,
    /// in emission order.
    fn on_event(&mut self, event: &FrameEvent);
}

/// Blanket impl so plain closures subscribe directly.
impl<F: FnMut(&FrameEvent) + Send> Subscriber for F {
    fn on_event(&mut self, event: &FrameEvent) {
        self(event)
    }
}

/// A synchronous, typed publish/subscribe bus.
///
/// Deliberately simple: emission walks the subscriber list in
/// subscription order on the emitting thread, so event handling is
/// deterministic and adds no cross-thread machinery to the frame path.
/// Each stream (and each manager) owns its own bus; cross-stream
/// aggregation is a subscriber's job.
#[derive(Default)]
pub struct EventBus {
    subscribers: Vec<Box<dyn Subscriber>>,
    emitted: usize,
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a subscriber; it sees every event emitted from now on.
    pub fn subscribe(&mut self, sub: Box<dyn Subscriber>) {
        self.subscribers.push(sub);
    }

    /// Emits one event to every subscriber, in subscription order.
    pub fn emit(&mut self, event: FrameEvent) {
        self.emitted += 1;
        for sub in &mut self.subscribers {
            sub.on_event(&event);
        }
    }
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventBus")
            .field("subscribers", &self.subscribers.len())
            .field("emitted", &self.emitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    fn plan(stream: StreamId, frame: usize) -> FrameEvent {
        FrameEvent::PlanIssued {
            stream,
            frame,
            scenario: 5,
            predicted_total_ms: 40.0,
            stripes: 2,
            feasible: true,
        }
    }

    #[test]
    fn subscribers_see_events_in_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&log);
        let mut bus = EventBus::new();
        bus.subscribe(Box::new(move |e: &FrameEvent| {
            sink.lock().unwrap().push(e.frame());
        }));
        for i in 0..5 {
            bus.emit(plan(0, i));
        }
        assert_eq!(*log.lock().unwrap(), vec![0, 1, 2, 3, 4]);
        assert_eq!(bus.emitted, 5);
    }

    #[test]
    fn multiple_subscribers_all_notified() {
        let a = Arc::new(Mutex::new(0usize));
        let b = Arc::new(Mutex::new(0usize));
        let (sa, sb) = (Arc::clone(&a), Arc::clone(&b));
        let mut bus = EventBus::new();
        bus.subscribe(Box::new(move |_: &FrameEvent| *sa.lock().unwrap() += 1));
        bus.subscribe(Box::new(move |_: &FrameEvent| *sb.lock().unwrap() += 1));
        bus.emit(plan(0, 0));
        bus.emit(plan(0, 1));
        assert_eq!(*a.lock().unwrap(), 2);
        assert_eq!(*b.lock().unwrap(), 2);
    }

    #[test]
    fn emit_without_subscribers_is_cheap_and_safe() {
        let mut bus = EventBus::new();
        bus.emit(plan(3, 7));
        assert_eq!(bus.emitted, 1);
    }

    #[test]
    fn accessors_cover_every_variant() {
        let events = [
            plan(1, 2),
            FrameEvent::PredictionIssued {
                stream: 1,
                frame: 2,
                scenario: 5,
                cost_us: 3.0,
            },
            FrameEvent::RepartitionDecided {
                stream: 1,
                frame: 2,
                from_stripes: 1,
                to_stripes: 4,
                reason: RepartitionReason::BudgetPressure,
            },
            FrameEvent::StageExecuted {
                stream: 1,
                frame: 2,
                task: Task::RdgFull,
                jobs: 4,
                serial_ms: 40.0,
                makespan_ms: 11.0,
            },
            FrameEvent::FrameExecuted {
                stream: 1,
                frame: 2,
                scenario: 7,
                predicted_total_ms: 40.0,
                actual_total_ms: 42.0,
                latency_ms: 12.0,
            },
            FrameEvent::BudgetOverrun {
                stream: 1,
                frame: 2,
                latency_ms: 80.0,
                budget_ms: 60.0,
            },
            FrameEvent::QosIntervention {
                stream: 1,
                frame: 2,
                level: 1,
            },
            FrameEvent::ModelRetrained {
                stream: 1,
                frame: 2,
                observations: 6,
            },
            FrameEvent::FaultInjected {
                stream: 1,
                frame: 2,
                kind: FaultKind::WorkerPanic,
            },
            FrameEvent::RetryAttempted {
                stream: 1,
                frame: 2,
                kind: FaultKind::WorkerPanic,
                attempt: 1,
            },
            FrameEvent::DegradedMode {
                stream: 1,
                frame: 2,
                mode: DegradeMode::SerialFallback,
                cause: FaultKind::WorkerPanic,
            },
            FrameEvent::Recovered {
                stream: 1,
                frame: 2,
                kind: FaultKind::WorkerPanic,
                attempts: 1,
            },
            FrameEvent::StreamAdmitted {
                stream: 1,
                frame: 2,
                shard: 0,
                cores: 2,
                queued_ms: 0.5,
                remaining_ms: 40.0,
            },
            FrameEvent::StreamQueued {
                stream: 1,
                frame: 2,
                depth: 3,
            },
            FrameEvent::StreamEvicted {
                stream: 1,
                frame: 2,
                shard: 0,
                by: 4,
            },
            FrameEvent::ShardRebalanced {
                stream: 1,
                frame: 2,
                from_shard: 0,
                to_shard: 1,
            },
            FrameEvent::TracePhase {
                stream: 1,
                frame: 2,
                phase: "storm",
            },
            FrameEvent::CalibrationReport {
                stream: 1,
                frame: 2,
                frames: 32,
                p50_cov: 0.53,
                p95_cov: 0.94,
                p99_cov: 0.99,
            },
        ];
        for e in events {
            assert_eq!(e.stream(), 1);
            assert_eq!(e.frame(), 2);
        }
    }

    #[test]
    fn replay_keys_cover_exactly_the_fault_family() {
        let fault_events = [
            FrameEvent::FaultInjected {
                stream: 3,
                frame: 9,
                kind: FaultKind::StageDelay,
            },
            FrameEvent::RetryAttempted {
                stream: 3,
                frame: 9,
                kind: FaultKind::ChannelError,
                attempt: 2,
            },
            FrameEvent::DegradedMode {
                stream: 3,
                frame: 9,
                mode: DegradeMode::OutputDropped,
                cause: FaultKind::FrameDrop,
            },
            FrameEvent::Recovered {
                stream: 3,
                frame: 9,
                kind: FaultKind::SnapshotCorruption,
                attempts: 0,
            },
        ];
        let keys: Vec<String> = fault_events
            .iter()
            .map(|e| e.replay_key().expect("fault event must have a key"))
            .collect();
        // keys are distinct and carry the stream/frame coordinates
        for (i, k) in keys.iter().enumerate() {
            assert!(k.starts_with("s3/f9/"), "key {k}");
            assert!(keys.iter().enumerate().all(|(j, o)| i == j || o != k));
        }
        // timing-carrying events never get a replay key
        assert_eq!(plan(3, 9).replay_key(), None);
        assert_eq!(
            FrameEvent::BudgetOverrun {
                stream: 3,
                frame: 9,
                latency_ms: 80.0,
                budget_ms: 60.0,
            }
            .replay_key(),
            None
        );
        // service placement events are timing-dependent too: no key
        assert_eq!(
            FrameEvent::StreamAdmitted {
                stream: 3,
                frame: 9,
                shard: 1,
                cores: 2,
                queued_ms: 0.1,
                remaining_ms: 40.0,
            }
            .replay_key(),
            None
        );
        assert_eq!(
            FrameEvent::StreamEvicted {
                stream: 3,
                frame: 9,
                shard: 1,
                by: 4,
            }
            .replay_key(),
            None
        );
        // trace phases are ledgered through the workload keyspace: no key
        assert_eq!(
            FrameEvent::TracePhase {
                stream: 3,
                frame: 9,
                phase: "storm",
            }
            .replay_key(),
            None
        );
        // calibration reports score measured frame times: no key
        assert_eq!(
            FrameEvent::CalibrationReport {
                stream: 3,
                frame: 9,
                frames: 32,
                p50_cov: 0.5,
                p95_cov: 0.95,
                p99_cov: 0.99,
            }
            .replay_key(),
            None
        );
    }
}
