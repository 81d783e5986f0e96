//! Lock-cheap metrics registry: counters, gauges and fixed-bucket
//! latency histograms with per-stream / per-stage labels.
//!
//! The resource manager repartitions the flow graph from *measured*
//! per-frame signals (Sections 4–6 of the paper), and every layer already
//! publishes those signals as typed [`FrameEvent`]s. This module turns
//! the event stream into queryable telemetry: the metrics subscriber
//! that [`Observability::attach`] puts on a bus aggregates events into a
//! shared [`MetricsRegistry`] (so the manager, executor, session
//! scheduler and recovery path need only emit the events they already
//! emit), and a [`MetricsSnapshot`] renders the registry as plain text
//! for session reports.
//!
//! Handles returned by the registry ([`Counter`], [`Histogram`]) are
//! `Arc`-shared atomics: recording is lock-free, and the registry's map
//! is only locked on first registration of a series and on snapshot. The
//! subscriber additionally meters its own cost (the `metrics_self_ns`
//! counter), so the observability layer's overhead is itself observable.

use crate::bus::{EventBus, FrameEvent, StreamId, Subscriber};
use crate::span::{SpanCollector, TraceSubscriber};
use parking_lot::RwLock;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Label set attached to one metric series.
///
/// Two dimensions cover every emitter in the stack: the stream a series
/// belongs to, and a short static tag — the stage (task) name for
/// execution metrics, the fault kind or degrade mode for the fault
/// family. `None` means the dimension does not apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels {
    /// Emitting stream, when the series is per-stream.
    pub stream: Option<StreamId>,
    /// Stage / kind tag, when the series is per-stage.
    pub stage: Option<&'static str>,
}

impl Labels {
    /// No labels (a process-global series).
    pub fn none() -> Self {
        Self::default()
    }

    /// A per-stream series.
    pub fn stream(stream: StreamId) -> Self {
        Self {
            stream: Some(stream),
            stage: None,
        }
    }

    /// A per-stream, per-stage series.
    pub fn stage(stream: StreamId, stage: &'static str) -> Self {
        Self {
            stream: Some(stream),
            stage: Some(stage),
        }
    }

    fn render(&self) -> String {
        match (self.stream, self.stage) {
            (None, None) => String::new(),
            (Some(s), None) => format!("{{stream={s}}}"),
            (None, Some(t)) => format!("{{stage={t}}}"),
            (Some(s), Some(t)) => format!("{{stream={s},stage={t}}}"),
        }
    }
}

/// Identity of one metric series in the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct Key {
    name: &'static str,
    labels: Labels,
}

/// 1-based nearest rank of percentile `p` over `count` samples.
///
/// The single rank formula shared by the exact series [`percentile`]
/// and the bucketed [`HistogramSnapshot`] percentiles, so the two report the
/// same rank semantics (they differ only by bucket quantization).
fn nearest_rank(p: f64, count: u64) -> u64 {
    ((p.clamp(0.0, 1.0) * count as f64).ceil() as u64).clamp(1, count)
}

/// Nearest-rank percentile of an unsorted series (`p` in `[0, 1]`);
/// `0.0` on an empty slice.
///
/// Exact (sorts a copy of the data) — the small-series complement of
/// [`Histogram`], which answers the same question from
/// fixed buckets without retaining samples. Used for per-stream p99s in
/// session reports and benchmark tables, and for the predictors' residual
/// quantiles. Sorted by [`f64::total_cmp`].
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = nearest_rank(p, sorted.len() as u64) as usize;
    sorted[rank - 1]
}

/// Summary statistics of a latency series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of frames.
    pub frames: usize,
    /// Mean latency, ms.
    pub mean: f64,
    /// Standard deviation (jitter), ms.
    pub std: f64,
    /// Minimum latency, ms.
    pub min: f64,
    /// Maximum latency, ms.
    pub max: f64,
    /// `(max - mean) / mean`: the worst-vs-average-case gap the paper
    /// reports (85% straightforward vs. 20% semi-automatic).
    pub worst_vs_avg: f64,
}

/// Mean, spread and extremes of a latency series, ms; all zero on an
/// empty slice.
pub fn summary_of(xs: &[f64]) -> LatencySummary {
    if xs.is_empty() {
        return LatencySummary {
            frames: 0,
            mean: 0.0,
            std: 0.0,
            min: 0.0,
            max: 0.0,
            worst_vs_avg: 0.0,
        };
    }
    let n = xs.len() as f64;
    let mean = xs.iter().sum::<f64>() / n;
    let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    LatencySummary {
        frames: xs.len(),
        mean,
        std: var.sqrt(),
        min,
        max,
        worst_vs_avg: if mean > 0.0 { (max - mean) / mean } else { 0.0 },
    }
}

/// A monotonically increasing counter. Cloning shares the underlying
/// atomic cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Increments by one.
    pub(crate) fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64`. Cloning shares the cell.
#[derive(Debug, Clone, Default)]
struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Sub-buckets per power-of-two octave: values are exact below
/// [`HIST_SUB`] µs and quantized to ≤ 1/8 (12.5 %) relative error above.
const HIST_SUB: u64 = 8;
/// log2 of [`HIST_SUB`].
const HIST_SUB_BITS: u32 = 3;
/// Total bucket count: octaves up to ~2^34 µs (≈ 4.8 hours) plus a
/// saturating overflow bucket at the end.
const HIST_BUCKETS: usize = 264;

/// Interior of a [`Histogram`]: HDR-style fixed buckets (log2 octaves
/// with [`HIST_SUB`] linear sub-buckets each) over microsecond-quantized
/// values, all atomics.
#[derive(Debug)]
struct HistogramCore {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for HistogramCore {
    fn default() -> Self {
        Self {
            buckets: (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }
}

/// Bucket index of a microsecond value (saturating at the last bucket).
fn bucket_index(v_us: u64) -> usize {
    let idx = if v_us < HIST_SUB {
        v_us as usize
    } else {
        let msb = 63 - v_us.leading_zeros();
        let shift = msb - HIST_SUB_BITS;
        ((shift as usize + 1) << HIST_SUB_BITS) | ((v_us >> shift) & (HIST_SUB - 1)) as usize
    };
    idx.min(HIST_BUCKETS - 1)
}

/// Inclusive upper bound (µs) of a bucket.
fn bucket_upper_us(idx: usize) -> u64 {
    if idx < HIST_SUB as usize {
        return idx as u64;
    }
    let shift = (idx >> HIST_SUB_BITS) as u32 - 1;
    let sub = (idx as u64) & (HIST_SUB - 1);
    ((HIST_SUB + sub) << shift) + (1u64 << shift) - 1
}

impl HistogramCore {
    fn record_ms(&self, ms: f64) {
        let v_us = if ms <= 0.0 {
            0
        } else {
            (ms * 1000.0).round().min(u64::MAX as f64) as u64
        };
        self.buckets[bucket_index(v_us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(v_us, Ordering::Relaxed);
        self.min_us.fetch_min(v_us, Ordering::Relaxed);
        self.max_us.fetch_max(v_us, Ordering::Relaxed);
    }

    /// Nearest-rank percentile (`p` in `[0, 1]`), ms; 0.0 when empty. The
    /// bucket's upper bound (quantization error ≤ 12.5 % relative), clamped
    /// to the recorded min/max (so a single sample — and the extremes —
    /// are reported exactly).
    fn percentile_ms(&self, p: f64) -> f64 {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return 0.0;
        }
        let rank = nearest_rank(p, count);
        let mut seen = 0u64;
        let mut value_us = bucket_upper_us(HIST_BUCKETS - 1);
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                value_us = bucket_upper_us(i);
                break;
            }
        }
        let min = self.min_us.load(Ordering::Relaxed);
        let max = self.max_us.load(Ordering::Relaxed);
        (value_us.clamp(min, max)) as f64 / 1000.0
    }

    fn snapshot(&self, name: &'static str, labels: Labels) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let (min_ms, max_ms) = if count == 0 {
            (0.0, 0.0)
        } else {
            (
                self.min_us.load(Ordering::Relaxed) as f64 / 1000.0,
                self.max_us.load(Ordering::Relaxed) as f64 / 1000.0,
            )
        };
        HistogramSnapshot {
            name,
            labels,
            count,
            sum_ms: self.sum_us.load(Ordering::Relaxed) as f64 / 1000.0,
            min_ms,
            max_ms,
            p50_ms: self.percentile_ms(0.50),
            p95_ms: self.percentile_ms(0.95),
            p99_ms: self.percentile_ms(0.99),
        }
    }
}

/// A fixed-bucket latency histogram (values in milliseconds). Cloning
/// shares the underlying buckets.
#[derive(Debug, Clone, Default)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    /// Records one value (ms). Negative values clamp to zero.
    pub fn record(&self, ms: f64) {
        self.0.record_ms(ms);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// Point-in-time value of one counter series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Series labels.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: u64,
}

/// Point-in-time value of one gauge series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Series labels.
    pub labels: Labels,
    /// Value at snapshot time.
    pub value: f64,
}

/// Point-in-time summary of one histogram series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: &'static str,
    /// Series labels.
    pub labels: Labels,
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples, ms.
    pub sum_ms: f64,
    /// Minimum sample, ms.
    pub min_ms: f64,
    /// Maximum sample, ms.
    pub max_ms: f64,
    /// Median, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

/// A consistent point-in-time dump of every registered series, ordered
/// by name then labels. Renders as aligned plain text via [`std::fmt::Display`].
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// All counter series.
    pub counters: Vec<CounterSnapshot>,
    /// All gauge series.
    pub gauges: Vec<GaugeSnapshot>,
    /// All histogram series.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Sum of a counter across all label sets (0 when absent).
    pub fn counter_total(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// One counter series' value (0 when absent).
    pub fn counter(&self, name: &str, labels: Labels) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name && c.labels == labels)
            .map(|c| c.value)
            .unwrap_or(0)
    }

    /// One histogram series, if recorded.
    pub fn histogram(&self, name: &str, labels: Labels) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name && h.labels == labels)
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for c in &self.counters {
            writeln!(f, "{}{} {}", c.name, c.labels.render(), c.value)?;
        }
        for g in &self.gauges {
            writeln!(f, "{}{} {:.3}", g.name, g.labels.render(), g.value)?;
        }
        for h in &self.histograms {
            writeln!(
                f,
                "{}{} count={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
                h.name,
                h.labels.render(),
                h.count,
                h.p50_ms,
                h.p95_ms,
                h.p99_ms,
                h.max_ms
            )?;
        }
        Ok(())
    }
}

/// The registry: a named, labelled family of counters, gauges and
/// histograms shared across threads.
///
/// `counter`/`gauge`/`histogram` return `Arc`-shared handles; hold the
/// handle and record through it (atomic-only). The interior maps are
/// behind [`parking_lot::RwLock`]s taken only on registration (write)
/// and lookup/snapshot (read).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: RwLock<BTreeMap<Key, Counter>>,
    gauges: RwLock<BTreeMap<Key, Gauge>>,
    histograms: RwLock<BTreeMap<Key, Histogram>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter series `name{labels}`, created on first use.
    pub fn counter(&self, name: &'static str, labels: Labels) -> Counter {
        let key = Key { name, labels };
        if let Some(c) = self.counters.read().get(&key) {
            return c.clone();
        }
        self.counters.write().entry(key).or_default().clone()
    }

    /// The gauge series `name{labels}`, created on first use.
    fn gauge(&self, name: &'static str, labels: Labels) -> Gauge {
        let key = Key { name, labels };
        if let Some(g) = self.gauges.read().get(&key) {
            return g.clone();
        }
        self.gauges.write().entry(key).or_default().clone()
    }

    /// Sets the gauge series `name{labels}` — for values no bus event
    /// carries (the service core's `service_workers`, set once at spawn).
    pub fn set_gauge(&self, name: &'static str, labels: Labels, value: f64) {
        self.gauge(name, labels).set(value);
    }

    /// The histogram series `name{labels}`, created on first use.
    pub fn histogram(&self, name: &'static str, labels: Labels) -> Histogram {
        let key = Key { name, labels };
        if let Some(h) = self.histograms.read().get(&key) {
            return h.clone();
        }
        self.histograms.write().entry(key).or_default().clone()
    }

    /// A point-in-time dump of every series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .read()
                .iter()
                .map(|(k, c)| CounterSnapshot {
                    name: k.name,
                    labels: k.labels,
                    value: c.get(),
                })
                .collect(),
            gauges: self
                .gauges
                .read()
                .iter()
                .map(|(k, g)| GaugeSnapshot {
                    name: k.name,
                    labels: k.labels,
                    value: g.get(),
                })
                .collect(),
            histograms: self
                .histograms
                .read()
                .iter()
                .map(|(k, h)| h.0.snapshot(k.name, k.labels))
                .collect(),
        }
    }
}

/// A bus [`Subscriber`] aggregating every [`FrameEvent`] into a shared
/// [`MetricsRegistry`] (the event→metric mapping is tabulated in
/// DESIGN.md §4f). Handles are cached per series, so the steady-state
/// cost per event is a handle lookup plus a few atomic operations; that
/// cost is itself accumulated in the `metrics_self_ns` counter.
struct MetricsSubscriber {
    registry: Arc<MetricsRegistry>,
    counters: HashMap<Key, Counter>,
    gauges: HashMap<Key, Gauge>,
    histograms: HashMap<Key, Histogram>,
    self_ns: Counter,
}

impl MetricsSubscriber {
    /// A subscriber feeding `registry`.
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        let self_ns = registry.counter("metrics_self_ns", Labels::none());
        Self {
            registry,
            counters: HashMap::new(),
            gauges: HashMap::new(),
            histograms: HashMap::new(),
            self_ns,
        }
    }

    /// Creates a subscriber over `registry` and attaches it to `bus`.
    fn subscribe_to(bus: &mut EventBus, registry: Arc<MetricsRegistry>) {
        bus.subscribe(Box::new(Self::new(registry)));
    }

    fn counter(&mut self, name: &'static str, labels: Labels) -> Counter {
        let key = Key { name, labels };
        self.counters
            .entry(key)
            .or_insert_with(|| self.registry.counter(name, labels))
            .clone()
    }

    fn gauge(&mut self, name: &'static str, labels: Labels) -> Gauge {
        let key = Key { name, labels };
        self.gauges
            .entry(key)
            .or_insert_with(|| self.registry.gauge(name, labels))
            .clone()
    }

    fn histogram(&mut self, name: &'static str, labels: Labels) -> Histogram {
        let key = Key { name, labels };
        self.histograms
            .entry(key)
            .or_insert_with(|| self.registry.histogram(name, labels))
            .clone()
    }

    fn absorb(&mut self, event: &FrameEvent) {
        let per_stream = Labels::stream(event.stream());
        match *event {
            FrameEvent::PlanIssued {
                predicted_total_ms,
                stripes,
                feasible,
                ..
            } => {
                self.counter("plans_issued", per_stream).inc();
                if !feasible {
                    self.counter("plans_infeasible", per_stream).inc();
                }
                self.histogram("predicted_total_ms", per_stream)
                    .record(predicted_total_ms);
                self.gauge("stripes", per_stream).set(stripes as f64);
            }
            FrameEvent::PredictionIssued { cost_us, .. } => {
                self.counter("predictions_issued", per_stream).inc();
                self.histogram("prediction_cost_ms", per_stream)
                    .record(cost_us / 1000.0);
            }
            FrameEvent::RepartitionDecided { reason, .. } => {
                self.counter("repartitions", Labels::stage(event.stream(), reason.name()))
                    .inc();
            }
            FrameEvent::StageExecuted {
                task, makespan_ms, ..
            } => {
                let labels = Labels::stage(event.stream(), task.name());
                self.counter("stages_executed", labels).inc();
                self.histogram("stage_makespan_ms", labels)
                    .record(makespan_ms);
            }
            FrameEvent::FrameExecuted {
                predicted_total_ms,
                actual_total_ms,
                latency_ms,
                ..
            } => {
                self.counter("frames_executed", per_stream).inc();
                self.histogram("frame_latency_ms", per_stream)
                    .record(latency_ms);
                self.histogram("prediction_error_ms", per_stream)
                    .record((predicted_total_ms - actual_total_ms).abs());
            }
            FrameEvent::BudgetOverrun {
                latency_ms,
                budget_ms,
                ..
            } => {
                self.counter("budget_overruns", per_stream).inc();
                self.histogram("overrun_excess_ms", per_stream)
                    .record(latency_ms - budget_ms);
            }
            FrameEvent::QosIntervention { level, .. } => {
                self.counter("qos_interventions", per_stream).inc();
                self.gauge("qos_level", per_stream).set(level as f64);
            }
            FrameEvent::ModelRetrained { observations, .. } => {
                self.counter("model_retrains", per_stream).inc();
                self.counter("observations_absorbed", per_stream)
                    .add(observations as u64);
            }
            FrameEvent::FaultInjected { kind, .. } => {
                self.counter(
                    "faults_injected",
                    Labels::stage(event.stream(), kind.name()),
                )
                .inc();
            }
            FrameEvent::RetryAttempted { kind, .. } => {
                self.counter(
                    "retries_attempted",
                    Labels::stage(event.stream(), kind.name()),
                )
                .inc();
            }
            FrameEvent::DegradedMode { mode, .. } => {
                self.counter("degraded_mode", Labels::stage(event.stream(), mode.name()))
                    .inc();
            }
            FrameEvent::Recovered { kind, .. } => {
                self.counter("recovered", Labels::stage(event.stream(), kind.name()))
                    .inc();
            }
            FrameEvent::StreamAdmitted {
                shard, queued_ms, ..
            } => {
                self.counter("streams_admitted", per_stream).inc();
                self.histogram("admission_wait_ms", per_stream)
                    .record(queued_ms);
                self.gauge("shard", per_stream).set(shard as f64);
            }
            FrameEvent::StreamQueued { depth, .. } => {
                self.counter("streams_queued", per_stream).inc();
                self.gauge("admission_queue_depth", Labels::none())
                    .set(depth as f64);
            }
            FrameEvent::StreamEvicted { .. } => {
                self.counter("streams_evicted", per_stream).inc();
            }
            FrameEvent::ShardRebalanced { .. } => {
                self.counter("shard_rebalances", per_stream).inc();
            }
            FrameEvent::TracePhase { phase, .. } => {
                self.counter(
                    "trace_phase_transitions",
                    Labels::stage(event.stream(), phase),
                )
                .inc();
            }
            FrameEvent::CalibrationReport {
                p50_cov,
                p95_cov,
                p99_cov,
                ..
            } => {
                self.counter("calibration_reports", per_stream).inc();
                self.gauge("calibration_p50", per_stream).set(p50_cov);
                self.gauge("calibration_p95", per_stream).set(p95_cov);
                self.gauge("calibration_p99", per_stream).set(p99_cov);
            }
        }
    }
}

impl Subscriber for MetricsSubscriber {
    fn on_event(&mut self, event: &FrameEvent) {
        let t0 = std::time::Instant::now();
        self.absorb(event);
        self.self_ns.add(t0.elapsed().as_nanos() as u64);
    }
}

/// The observability front door: one shared [`MetricsRegistry`] plus one
/// shared [`SpanCollector`], attachable to any number of event buses.
///
/// Clone it freely (both halves are `Arc`-shared); attach it to a
/// manager's bus with [`Observability::attach`] and read the aggregate
/// out with [`Observability::snapshot`] /
/// [`Observability::chrome_trace_json`] at any point.
#[derive(Clone, Default)]
pub struct Observability {
    metrics: Arc<MetricsRegistry>,
    spans: SpanCollector,
}

impl Observability {
    /// A fresh registry and span collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The shared span collector.
    pub fn spans(&self) -> &SpanCollector {
        &self.spans
    }

    /// Attaches a metrics subscriber and a [`TraceSubscriber`] to
    /// `bus`: everything the bus emits from now on lands in this
    /// instance's registry and span collector.
    pub fn attach(&self, bus: &mut EventBus) {
        MetricsSubscriber::subscribe_to(bus, Arc::clone(&self.metrics));
        TraceSubscriber::subscribe_to(bus, self.spans.clone());
    }

    /// A point-in-time dump of all metric series.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// All collected spans as Chrome `trace_event` JSON (loadable in
    /// `chrome://tracing` and Perfetto).
    pub fn chrome_trace_json(&self) -> String {
        self.spans.chrome_trace_json()
    }

    /// Host wall-clock time the metrics layer has spent handling events,
    /// ms (the built-in self-overhead meter).
    pub fn self_overhead_ms(&self) -> f64 {
        self.metrics
            .counter("metrics_self_ns", Labels::none())
            .get() as f64
            / 1e6
    }
}

impl std::fmt::Debug for Observability {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Observability")
            .field("spans", &self.spans.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::Task;

    fn max_ms(h: &Histogram) -> f64 {
        h.0.snapshot("h", Labels::none()).max_ms
    }

    #[test]
    fn summary_statistics() {
        let s = summary_of(&[10.0, 20.0, 30.0]);
        assert_eq!(s.frames, 3);
        assert!((s.mean - 20.0).abs() < 1e-12);
        assert_eq!(s.min, 10.0);
        assert_eq!(s.max, 30.0);
        assert!((s.worst_vs_avg - 0.5).abs() < 1e-12);
        assert!((s.std - (200.0f64 / 3.0).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = summary_of(&[]);
        assert_eq!(s.frames, 0);
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn bucket_index_is_monotone_and_exact_below_sub() {
        for v in 0..HIST_SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_upper_us(v as usize), v);
        }
        let mut last = 0;
        for v in [8u64, 9, 15, 16, 17, 100, 1000, 1 << 20, 1 << 33] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(bucket_upper_us(idx) >= v, "upper bound below value {v}");
            last = idx;
        }
    }

    #[test]
    fn empty_histogram_percentiles_are_zero() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.0.percentile_ms(0.5), 0.0);
        assert_eq!(h.0.percentile_ms(0.99), 0.0);
        assert_eq!(max_ms(&h), 0.0);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let h = Histogram::default();
        h.record(12.345);
        for p in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert!(
                (h.0.percentile_ms(p) - 12.345).abs() < 1e-9,
                "p{p} = {}",
                h.0.percentile_ms(p)
            );
        }
        assert!((max_ms(&h) - 12.345).abs() < 1e-9);
    }

    #[test]
    fn saturating_bucket_absorbs_huge_values() {
        let h = Histogram::default();
        h.record(1e12); // ~31 years, far beyond the last octave
        h.record(1.0);
        assert_eq!(h.count(), 2);
        let p99 = h.0.percentile_ms(0.99);
        assert!(p99.is_finite());
        assert!(p99 <= max_ms(&h));
        assert!(max_ms(&h) >= 1e12 * 0.999);
    }

    #[test]
    fn percentiles_are_ordered_and_within_error_bound() {
        let h = Histogram::default();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.0.percentile_ms(0.50);
        let p95 = h.0.percentile_ms(0.95);
        let p99 = h.0.percentile_ms(0.99);
        assert!(p50 <= p95 && p95 <= p99 && p99 <= max_ms(&h));
        // ≤ 12.5 % bucket quantization error
        assert!((p50 - 500.0).abs() / 500.0 < 0.125, "p50 {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.125, "p99 {p99}");
    }

    #[test]
    fn negative_and_zero_values_clamp_to_zero_bucket() {
        let h = Histogram::default();
        h.record(-5.0);
        h.record(0.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.0.percentile_ms(1.0), 0.0);
    }

    #[test]
    fn registry_returns_shared_handles() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x", Labels::stream(1));
        let b = reg.counter("x", Labels::stream(1));
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        // distinct labels are distinct series
        reg.counter("x", Labels::stream(2)).inc();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("x", Labels::stream(1)), 3);
        assert_eq!(snap.counter("x", Labels::stream(2)), 1);
        assert_eq!(snap.counter_total("x"), 4);
    }

    #[test]
    fn subscriber_counts_frames_and_meters_itself() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut bus = EventBus::new();
        MetricsSubscriber::subscribe_to(&mut bus, Arc::clone(&reg));
        for frame in 0..5 {
            bus.emit(FrameEvent::FrameExecuted {
                stream: 2,
                frame,
                scenario: 5,
                predicted_total_ms: 40.0,
                actual_total_ms: 42.0,
                latency_ms: 12.0,
            });
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("frames_executed", Labels::stream(2)), 5);
        let lat = snap
            .histogram("frame_latency_ms", Labels::stream(2))
            .expect("latency histogram");
        assert_eq!(lat.count, 5);
        assert!((lat.p50_ms - 12.0).abs() < 1e-9);
        assert!(snap.counter_total("metrics_self_ns") > 0, "self meter idle");
    }

    #[test]
    fn series_percentile_is_exact_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[42.0], 0.0), 42.0);
        assert_eq!(percentile(&[42.0], 1.0), 42.0);
        // unsorted input; nearest-rank picks an actual sample
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&xs, 0.5), 3.0);
        assert_eq!(percentile(&xs, 0.2), 1.0);
        assert_eq!(percentile(&xs, 0.99), 5.0);
        // out-of-range p clamps
        assert_eq!(percentile(&xs, -1.0), 1.0);
        assert_eq!(percentile(&xs, 2.0), 5.0);
    }

    #[test]
    fn series_and_histogram_percentiles_agree_within_quantization() {
        let h = Histogram::default();
        let xs: Vec<f64> = (1..=500).map(|i| i as f64 * 0.25).collect();
        for &x in &xs {
            h.record(x);
        }
        for p in [0.5, 0.95, 0.99] {
            let exact = percentile(&xs, p);
            let bucketed = h.0.percentile_ms(p);
            assert!(
                (bucketed - exact).abs() / exact < 0.125,
                "p{p}: exact {exact} vs bucketed {bucketed}"
            );
        }
    }

    #[test]
    fn subscriber_absorbs_service_tier_events() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut bus = EventBus::new();
        MetricsSubscriber::subscribe_to(&mut bus, Arc::clone(&reg));
        bus.emit(FrameEvent::StreamQueued {
            stream: 4,
            frame: 0,
            depth: 3,
        });
        bus.emit(FrameEvent::StreamAdmitted {
            stream: 4,
            frame: 0,
            shard: 1,
            cores: 2,
            queued_ms: 7.5,
            remaining_ms: 40.0,
        });
        bus.emit(FrameEvent::StreamEvicted {
            stream: 4,
            frame: 6,
            shard: 1,
            by: 5,
        });
        bus.emit(FrameEvent::ShardRebalanced {
            stream: 4,
            frame: 6,
            from_shard: 1,
            to_shard: 2,
        });
        let snap = reg.snapshot();
        assert_eq!(snap.counter("streams_queued", Labels::stream(4)), 1);
        assert_eq!(snap.counter("streams_admitted", Labels::stream(4)), 1);
        assert_eq!(snap.counter("streams_evicted", Labels::stream(4)), 1);
        assert_eq!(snap.counter("shard_rebalances", Labels::stream(4)), 1);
        let wait = snap
            .histogram("admission_wait_ms", Labels::stream(4))
            .expect("admission wait histogram");
        assert_eq!(wait.count, 1);
        assert!((wait.max_ms - 7.5).abs() < 1e-9);
    }

    #[test]
    fn snapshot_renders_text() {
        let reg = MetricsRegistry::new();
        reg.counter("frames_executed", Labels::stream(0)).add(7);
        reg.histogram("frame_latency_ms", Labels::stage(0, Task::RdgFull.name()))
            .record(3.5);
        let snap = reg.snapshot();
        let text = snap.to_string();
        assert!(text.contains("frames_executed{stream=0} 7"), "{text}");
        assert!(
            text.contains("frame_latency_ms{stream=0,stage=RDG_FULL} count=1"),
            "{text}"
        );
    }
}
