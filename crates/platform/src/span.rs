//! Span tracing: timing records exported as Chrome `trace_event`
//! JSON (loadable in `chrome://tracing` and Perfetto).
//!
//! A [`SpanCollector`] is a cheap-to-clone, thread-safe sink of span
//! records, all timestamped against one shared epoch so spans from
//! concurrent streams line up on a single timeline. [`TraceSubscriber`]
//! bridges the [`FrameEvent`] bus into a collector, so every layer that
//! already emits events gets spans for free, of two kinds:
//!
//! * a complete (`"ph": "X"`) span, back-dated from a duration that was
//!   already measured (the executor reports stage makespans after the
//!   fact);
//! * a zero-width (`"ph": "i"`) marker for point decisions — plans,
//!   repartitions, faults, retries.
//!
//! In the exported JSON the process is `pid` 1 and each stream is a
//! `tid`, named via `thread_name` metadata.

use crate::bus::{EventBus, FrameEvent, StreamId, Subscriber};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// Chrome trace phase of a span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpanPhase {
    /// A duration span (`"ph": "X"`, has `dur`).
    Complete,
    /// A zero-width marker (`"ph": "i"`, thread-scoped).
    Instant,
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
struct SpanRecord {
    /// Span name (the `name` field in the trace).
    name: &'static str,
    /// Category (`cat` field; Perfetto filters on it).
    cat: &'static str,
    /// Complete or instant.
    phase: SpanPhase,
    /// Stream the span belongs to (becomes the `tid`).
    stream: StreamId,
    /// Start time, µs since the collector's epoch.
    ts_us: u64,
    /// Duration, µs (0 for instants).
    dur_us: u64,
    /// Numeric key/value annotations (`args` object in the trace).
    args: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
struct CollectorInner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Thread-safe span sink with a shared epoch. Clones share storage.
#[derive(Debug, Clone)]
pub struct SpanCollector {
    inner: Arc<CollectorInner>,
}

impl Default for SpanCollector {
    fn default() -> Self {
        Self {
            inner: Arc::new(CollectorInner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
            }),
        }
    }
}

impl SpanCollector {
    /// An empty collector whose epoch is "now".
    pub fn new() -> Self {
        Self::default()
    }

    fn now_us(&self) -> u64 {
        self.inner.epoch.elapsed().as_micros() as u64
    }

    fn push(&self, record: SpanRecord) {
        self.inner.spans.lock().push(record);
    }

    /// Records a complete span that ends now and started `dur_us` ago
    /// (for durations measured elsewhere, e.g. stage makespans).
    fn complete_ending_now(
        &self,
        name: &'static str,
        cat: &'static str,
        stream: StreamId,
        dur_us: u64,
        args: Vec<(&'static str, f64)>,
    ) {
        let end = self.now_us();
        self.push(SpanRecord {
            name,
            cat,
            phase: SpanPhase::Complete,
            stream,
            ts_us: end.saturating_sub(dur_us),
            dur_us,
            args,
        });
    }

    /// Records an instant marker at "now".
    fn instant(
        &self,
        name: &'static str,
        cat: &'static str,
        stream: StreamId,
        args: Vec<(&'static str, f64)>,
    ) {
        self.push(SpanRecord {
            name,
            cat,
            phase: SpanPhase::Instant,
            stream,
            ts_us: self.now_us(),
            dur_us: 0,
            args,
        });
    }

    /// Number of spans collected so far.
    pub fn len(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// Whether no spans have been collected.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of every span collected so far, in recording order.
    fn records(&self) -> Vec<SpanRecord> {
        self.inner.spans.lock().clone()
    }

    /// All spans as Chrome `trace_event` JSON: `pid` 1 is the process,
    /// each stream is a `tid` labelled by `thread_name` metadata. Load
    /// the string in `chrome://tracing` or <https://ui.perfetto.dev>.
    pub fn chrome_trace_json(&self) -> String {
        let spans = self.records();
        let mut out = String::from("{\"traceEvents\": [\n");
        out.push_str(
            "{\"ph\": \"M\", \"pid\": 1, \"name\": \"process_name\", \
             \"args\": {\"name\": \"triple-c\"}}",
        );
        let mut streams: Vec<StreamId> = spans.iter().map(|s| s.stream).collect();
        streams.sort_unstable();
        streams.dedup();
        for stream in streams {
            out.push_str(&format!(
                ",\n{{\"ph\": \"M\", \"pid\": 1, \"tid\": {stream}, \"name\": \
                 \"thread_name\", \"args\": {{\"name\": \"stream {stream}\"}}}}"
            ));
        }
        for s in &spans {
            let mut args = String::new();
            for (i, (k, v)) in s.args.iter().enumerate() {
                if i > 0 {
                    args.push_str(", ");
                }
                if v.is_finite() {
                    args.push_str(&format!("\"{k}\": {v}"));
                } else {
                    args.push_str(&format!("\"{k}\": null"));
                }
            }
            match s.phase {
                SpanPhase::Complete => out.push_str(&format!(
                    ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \
                     \"tid\": {}, \"ts\": {}, \"dur\": {}, \"args\": {{{}}}}}",
                    s.name, s.cat, s.stream, s.ts_us, s.dur_us, args
                )),
                SpanPhase::Instant => out.push_str(&format!(
                    ",\n{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"i\", \"s\": \"t\", \
                     \"pid\": 1, \"tid\": {}, \"ts\": {}, \"args\": {{{}}}}}",
                    s.name, s.cat, s.stream, s.ts_us, args
                )),
            }
        }
        out.push_str("\n]}");
        out
    }
}

/// A bus [`Subscriber`] turning [`FrameEvent`]s into spans:
/// duration-carrying events ([`FrameEvent::StageExecuted`],
/// [`FrameEvent::FrameExecuted`], [`FrameEvent::PredictionIssued`])
/// become complete spans back-dated by their reported duration; plan,
/// repartition and fault-family events become instants.
pub struct TraceSubscriber {
    spans: SpanCollector,
}

impl TraceSubscriber {
    /// A subscriber feeding `spans`.
    fn new(spans: SpanCollector) -> Self {
        Self { spans }
    }

    /// Creates a subscriber over `spans` and attaches it to `bus`.
    pub fn subscribe_to(bus: &mut EventBus, spans: SpanCollector) {
        bus.subscribe(Box::new(Self::new(spans)));
    }
}

impl Subscriber for TraceSubscriber {
    fn on_event(&mut self, event: &FrameEvent) {
        let stream = event.stream();
        let frame = event.frame() as f64;
        match *event {
            FrameEvent::PlanIssued {
                scenario,
                predicted_total_ms,
                stripes,
                feasible,
                ..
            } => self.spans.instant(
                "plan",
                "plan",
                stream,
                vec![
                    ("frame", frame),
                    ("scenario", scenario as f64),
                    ("predicted_total_ms", predicted_total_ms),
                    ("stripes", stripes as f64),
                    ("feasible", if feasible { 1.0 } else { 0.0 }),
                ],
            ),
            FrameEvent::PredictionIssued {
                scenario, cost_us, ..
            } => self.spans.complete_ending_now(
                "predict",
                "prediction",
                stream,
                cost_us.max(0.0).round() as u64,
                vec![("frame", frame), ("scenario", scenario as f64)],
            ),
            FrameEvent::RepartitionDecided {
                from_stripes,
                to_stripes,
                reason,
                ..
            } => self.spans.instant(
                reason.name(),
                "repartition",
                stream,
                vec![
                    ("frame", frame),
                    ("from_stripes", from_stripes as f64),
                    ("to_stripes", to_stripes as f64),
                ],
            ),
            FrameEvent::StageExecuted {
                task,
                jobs,
                serial_ms,
                makespan_ms,
                ..
            } => self.spans.complete_ending_now(
                task.name(),
                "stage",
                stream,
                (makespan_ms.max(0.0) * 1000.0).round() as u64,
                vec![
                    ("frame", frame),
                    ("jobs", jobs as f64),
                    ("serial_ms", serial_ms),
                ],
            ),
            FrameEvent::FrameExecuted {
                scenario,
                predicted_total_ms,
                actual_total_ms,
                latency_ms,
                ..
            } => self.spans.complete_ending_now(
                "frame",
                "frame",
                stream,
                (latency_ms.max(0.0) * 1000.0).round() as u64,
                vec![
                    ("frame", frame),
                    ("scenario", scenario as f64),
                    ("predicted_total_ms", predicted_total_ms),
                    ("actual_total_ms", actual_total_ms),
                ],
            ),
            FrameEvent::BudgetOverrun {
                latency_ms,
                budget_ms,
                ..
            } => self.spans.instant(
                "budget-overrun",
                "budget",
                stream,
                vec![
                    ("frame", frame),
                    ("latency_ms", latency_ms),
                    ("budget_ms", budget_ms),
                ],
            ),
            FrameEvent::QosIntervention { level, .. } => self.spans.instant(
                "qos-intervention",
                "qos",
                stream,
                vec![("frame", frame), ("level", level as f64)],
            ),
            FrameEvent::ModelRetrained { observations, .. } => self.spans.instant(
                "model-retrained",
                "model",
                stream,
                vec![("frame", frame), ("observations", observations as f64)],
            ),
            FrameEvent::FaultInjected { kind, .. } => {
                self.spans
                    .instant(kind.name(), "fault", stream, vec![("frame", frame)])
            }
            FrameEvent::RetryAttempted { kind, attempt, .. } => self.spans.instant(
                kind.name(),
                "retry",
                stream,
                vec![("frame", frame), ("attempt", attempt as f64)],
            ),
            FrameEvent::DegradedMode { mode, .. } => {
                self.spans
                    .instant(mode.name(), "degraded", stream, vec![("frame", frame)])
            }
            FrameEvent::Recovered { kind, attempts, .. } => self.spans.instant(
                kind.name(),
                "recovered",
                stream,
                vec![("frame", frame), ("attempts", attempts as f64)],
            ),
            FrameEvent::StreamAdmitted {
                shard,
                cores,
                queued_ms,
                remaining_ms,
                ..
            } => self.spans.instant(
                "admitted",
                "service",
                stream,
                vec![
                    ("frame", frame),
                    ("shard", shard as f64),
                    ("cores", cores as f64),
                    ("queued_ms", queued_ms),
                    ("remaining_ms", remaining_ms),
                ],
            ),
            FrameEvent::StreamQueued { depth, .. } => self.spans.instant(
                "queued",
                "service",
                stream,
                vec![("frame", frame), ("depth", depth as f64)],
            ),
            FrameEvent::StreamEvicted { shard, by, .. } => self.spans.instant(
                "evicted",
                "service",
                stream,
                vec![("frame", frame), ("shard", shard as f64), ("by", by as f64)],
            ),
            FrameEvent::ShardRebalanced {
                from_shard,
                to_shard,
                ..
            } => self.spans.instant(
                "rebalanced",
                "service",
                stream,
                vec![
                    ("frame", frame),
                    ("from_shard", from_shard as f64),
                    ("to_shard", to_shard as f64),
                ],
            ),
            FrameEvent::TracePhase { phase, .. } => {
                self.spans
                    .instant(phase, "trace", stream, vec![("frame", frame)])
            }
            FrameEvent::CalibrationReport {
                frames,
                p50_cov,
                p95_cov,
                p99_cov,
                ..
            } => self.spans.instant(
                "calibration",
                "model",
                stream,
                vec![
                    ("frame", frame),
                    ("frames", frames as f64),
                    ("p50_cov", p50_cov),
                    ("p95_cov", p95_cov),
                    ("p99_cov", p99_cov),
                ],
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::FaultKind;
    use crate::task::Task;

    #[test]
    fn complete_ending_now_backdates_start() {
        let spans = SpanCollector::new();
        std::thread::sleep(std::time::Duration::from_millis(2));
        spans.complete_ending_now("stage", "stage", 0, 1_000, vec![]);
        let rec = &spans.records()[0];
        assert_eq!(rec.dur_us, 1_000);
        assert!(rec.ts_us > 0, "start should be after epoch");
    }

    #[test]
    fn trace_subscriber_maps_events_to_spans() {
        let spans = SpanCollector::new();
        let mut bus = EventBus::new();
        TraceSubscriber::subscribe_to(&mut bus, spans.clone());
        bus.emit(FrameEvent::StageExecuted {
            stream: 1,
            frame: 0,
            task: Task::RdgFull,
            jobs: 4,
            serial_ms: 7.5,
            makespan_ms: 2.0,
        });
        bus.emit(FrameEvent::FaultInjected {
            stream: 1,
            frame: 0,
            kind: FaultKind::WorkerPanic,
        });
        let recs = spans.records();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].name, "RDG_FULL");
        assert_eq!(recs[0].phase, SpanPhase::Complete);
        assert_eq!(recs[0].dur_us, 2_000);
        assert_eq!(recs[1].phase, SpanPhase::Instant);
        assert_eq!(recs[1].cat, "fault");
    }

    #[test]
    fn service_spans_say_why_a_stream_waited() {
        let spans = SpanCollector::new();
        let mut bus = EventBus::new();
        TraceSubscriber::subscribe_to(&mut bus, spans.clone());
        bus.emit(FrameEvent::StreamAdmitted {
            stream: 3,
            frame: 0,
            shard: 1,
            cores: 1,
            queued_ms: 12.5,
            remaining_ms: 38.0,
        });
        bus.emit(FrameEvent::StreamEvicted {
            stream: 3,
            frame: 4,
            shard: 1,
            by: 7,
        });
        let recs = spans.records();
        assert_eq!((recs[0].name, recs[0].cat), ("admitted", "service"));
        assert!(recs[0].args.contains(&("queued_ms", 12.5)));
        assert!(recs[0].args.contains(&("remaining_ms", 38.0)));
        assert_eq!(recs[1].name, "evicted");
        assert!(recs[1].args.contains(&("by", 7.0)));
    }

    #[test]
    fn chrome_trace_json_has_metadata_and_phases() {
        let spans = SpanCollector::new();
        spans.complete_ending_now(Task::RdgFull.name(), "stage", 0, 500, vec![("frame", 1.0)]);
        spans.instant("stripe-panic", "retry", 2, vec![("attempt", 1.0)]);
        let json = spans.chrome_trace_json();
        assert!(json.starts_with("{\"traceEvents\": ["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"process_name\""), "{json}");
        assert!(json.contains("\"name\": \"stream 2\""), "{json}");
        assert!(json.contains("\"ph\": \"X\""), "{json}");
        assert!(json.contains("\"ph\": \"i\""), "{json}");
        assert!(json.contains("\"tid\": 2"), "{json}");
    }
}
