//! One-line import for the common surface of the stack.
//!
//! `use triple_c::prelude::*;` brings in the types that nearly every
//! program touches: the predictor ([`TripleC`]), the stream layer
//! ([`StreamSpec`] in, [`StreamEngine`] as the frame loop, [`ServiceCore`]
//! as the scheduler, [`SessionReport`] out), the event bus
//! ([`EventBus`], [`FrameEvent`]), the observability bundle
//! ([`Observability`]) and the unified [`Error`]/[`Result`] pair.
//! Specialist modules (cache simulator, bandwidth models, fault
//! planning) stay behind their full paths on purpose — the prelude is
//! for the 90% path, not the whole API.

pub use crate::error::{Error, Result};
pub use imaging::image::{Image, ImageF32, ImageU16};
pub use pipeline::app::{AppConfig, AppState};
pub use pipeline::executor::ExecutionPolicy;
pub use pipeline::runner::{run_corpus, run_sequence};
pub use platform::arch::ArchModel;
pub use platform::bus::{EventBus, FrameEvent, StreamId, Subscriber};
pub use platform::metrics::{Labels, MetricsRegistry, MetricsSnapshot, Observability};
pub use platform::span::SpanCollector;
pub use runtime::budget::LatencyBudget;
pub use runtime::manager::{CalibrationSnapshot, ManagerConfig, ResourceManager};
pub use runtime::recovery::RecoveryPolicy;
pub use runtime::service::{
    AdmissionPolicy, ServiceConfig, ServiceCore, ShardLayout, StreamEngine,
};
pub use runtime::session::{SessionReport, StreamFailure, StreamResult, StreamSpec};
pub use triplec::predictor::{PredictContext, Prediction};
pub use triplec::scenario::Scenario;
pub use triplec::triple::{TripleC, TripleCConfig};
pub use xray::{SequenceConfig, SequenceGenerator};
