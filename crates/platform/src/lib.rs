//! # triplec-platform
//!
//! Simulated multiprocessor platform for the Triple-C reproduction,
//! modelling the paper's dual quad-core Intel "Blackford" testbed
//! (Fig. 4): [`arch`] holds the architecture parameters, [`cache`] is a
//! trace-driven set-associative cache simulator (the "measurement" side of
//! the bandwidth experiments), [`spacetime`] the analytic space-time
//! buffer-occupation model of Section 5 (the "prediction" side, Fig. 5),
//! [`bandwidth`] aggregates per-bus communication loads, [`mapping`]
//! describes task-to-core partitionings, [`bus`] is the typed frame-event bus
//! every layer above publishes onto, and [`profile`]/[`trace`] time task
//! executions and keep the per-frame records the prediction models train
//! on. [`metrics`] and [`span`] form the observability layer: both feed
//! off the event bus via built-in subscribers and export plain-text
//! snapshots and Chrome `trace_event` timelines; [`metrics`] also holds
//! the one series summary ([`summary_of`]) and percentile the experiments
//! report latencies with.

pub mod arch;
pub mod bandwidth;
pub mod bus;
pub mod cache;
pub mod mapping;
pub mod metrics;
pub mod profile;
pub mod spacetime;
pub mod span;
pub mod trace;

pub use arch::{ArchModel, CacheGeometry, GB, KB, MB};
pub use bandwidth::{add_intra_task, inter_task_load, BusLoad, Edge};
pub use bus::{
    DegradeMode, EventBus, FaultKind, FrameEvent, RepartitionReason, StreamId, Subscriber,
    DEFAULT_STREAM,
};
pub use cache::{Access, CacheSim, CacheStats};
pub use mapping::{Mapping, MappingError, Partition};
pub use metrics::{
    summary_of, Counter, Histogram, Labels, LatencySummary, MetricsRegistry, MetricsSnapshot,
    Observability,
};
pub use profile::time_ms;
pub use spacetime::{
    predict_traffic, simulate_traffic, BufferSpec, PassSpec, TaskAccessModel, TaskTraffic,
};
pub use span::{SpanCollector, TraceSubscriber};
pub use trace::{FrameRecord, TraceLog};
