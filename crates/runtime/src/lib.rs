//! # triplec-runtime
//!
//! Semi-automatic parallelization (Section 6 of the paper): a resource
//! manager consumes Triple-C predictions and repartitions the flow graph
//! at runtime so the output latency stays pinned near the average-case
//! budget instead of a conservative worst-case reservation.
//!
//! * [`budget`] — latency budgets (initialized close to average case);
//! * [`adaptation`] — the repartitioning policy (stripe-count selection);
//! * [`manager`] — the initialization / adaptation / profiling loop;
//! * [`session`] — what goes into and comes out of a stream
//!   ([`StreamSpec`], [`StreamResult`], [`SessionReport`]);
//! * [`service`] — [`StreamEngine`], whose `step_on` is the one managed
//!   closed loop (plan → execute → absorb → recover, then, for a stream
//!   built with [`StreamSpecBuilder::qos`], the quality level the next
//!   frame runs at when no partitioning holds the budget), and the sharded,
//!   prediction-ranked [`ServiceCore`] that schedules engines
//!   (per-core-group stripe-pool shards, demand-driven placement for one
//!   turn at a time, a fixed worker set serving the stream with the least
//!   predicted remaining work, time-slice pre-emption, bounded ingress
//!   queues with backpressure, and the [`ServiceHandle`] ingestion
//!   front-end);
//! * [`faults`] — deterministic, seeded fault injection (order
//!   independent: a seed reproduces a faulted run event-for-event);
//! * [`recovery`] — graceful-degradation policies (model quarantine,
//!   drift quarantine) beside the executor's stage retry;
//! * [`workload`] — the trace-driven workload harness: replayable
//!   scenario storms, mixed-resolution stream fleets, and the diffable
//!   run ledgers behind the golden-trace regression tests.

pub mod adaptation;
pub mod budget;
pub mod faults;
pub mod manager;
mod qos;
pub mod recovery;
pub mod service;
pub mod session;
pub mod workload;

pub use adaptation::{choose_policy, predicted_latency, CostPrediction};
pub use budget::LatencyBudget;
pub use faults::{fault_hash, FaultPlan, FaultPlanConfig};
pub use manager::{CalibrationSnapshot, ManagerConfig, Plan, ResourceManager};
pub use recovery::RecoveryPolicy;
pub use service::{
    predict_demand, AdmissionPolicy, BackpressurePolicy, EvictionPolicy, ServiceConfig,
    ServiceCore, ServiceHandle, ServiceReport, ShardLayout, ShardTopology, StreamDemand,
    StreamEngine, StreamServiceStats,
};
pub use session::{SessionReport, StreamFailure, StreamResult, StreamSpec, StreamSpecBuilder};
pub use workload::{ReplayReport, RunLedger, Trace, TraceError, TraceRunner};

#[cfg(test)]
pub(crate) mod test_support;
