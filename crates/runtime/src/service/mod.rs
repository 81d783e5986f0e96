//! The service tier: sharded pools, prediction-ranked scheduling, bounded
//! ingress with backpressure.
//!
//! The tier is built from composable pieces:
//!
//! * [`engine`] — [`StreamEngine`], one stream's resumable per-frame
//!   stepper (plan → execute → absorb → recover), parkable between
//!   frames;
//! * [`shard`] — [`ShardTopology`], the core budget partitioned into
//!   per-core-group stripe pools with best-fit placement;
//! * [`queue`] — [`FrameQueue`], bounded per-stream ingress with
//!   [`BackpressurePolicy::Block`] or
//!   [`BackpressurePolicy::DropOldest`];
//! * [`admission`] — [`predict_demand`], Triple-C predictions turned
//!   into scheduler input (cores + latency per stream), and the
//!   [`EvictionPolicy`] that says whether a stepping stream yields its
//!   turn;
//! * [`core`] — [`ServiceCore`], the scheduler tying it together: a fixed
//!   worker set serving the ready stream with the least predicted
//!   remaining work, a shard grant per turn, emitting `StreamAdmitted` /
//!   `StreamQueued` / `StreamEvicted` / `ShardRebalanced` bus events;
//! * [`handle`] — [`ServiceHandle`], the ingestion front-end (submit
//!   frames, poll completions, scrape metrics).
//!
//! [`StreamEngine::step_on`] is the frame loop and [`ServiceCore`] the
//! scheduler; nothing else in the crate plans, executes or absorbs a
//! frame, so outputs are bit-identical wherever an engine is driven from.

pub mod admission;
pub mod core;
pub mod engine;
pub mod handle;
mod perturb;
pub mod queue;
pub mod shard;

pub use admission::{predict_demand, AdmissionPolicy, EvictionPolicy, StreamDemand};
pub use engine::StreamEngine;
pub use handle::{ServiceHandle, SubmitOutcome};
pub use queue::{BackpressurePolicy, FrameQueue, PushOutcome, QueueStats};
pub use shard::{ShardLayout, ShardTopology};

pub use self::core::{
    ServiceConfig, ServiceCore, ServiceReport, StreamCompletion, StreamServiceStats,
};

// (last: `tests/api_surface.rs` stops reading a file at its first `cfg(test)`)
#[cfg(test)]
mod stress;
