//! # triplec-pipeline
//!
//! The dynamic flow-graph engine of the motion-compensated stent
//! enhancement application (Fig. 2 of the paper): [`graph`] describes the
//! static task/switch graph, [`app`] holds configuration and cross-frame
//! state (and the fine-scale hysteresis both the executor and the direct
//! RDG profiler apply), [`executor`] walks the graph per frame (measuring
//! every task and virtual-scheduling partitioned stages onto the modelled
//! platform), [`runner`] profiles whole sequences/corpora into training
//! series, and [`latency`] implements the output delay line and the jitter
//! metrics on top of `platform::metrics::summary_of`.

pub mod app;
pub mod executor;
pub mod graph;
pub mod latency;
pub mod runner;

pub use app::{structure_probe, AppConfig, AppState};
pub use executor::{process_frame, ExecutionPolicy, FrameOutput};
pub use graph::{edge_live, flow_graph, GraphEdge, Node, SwitchKind};
pub use latency::{jitter, jitter_reduction, DelayLine, JitterReport};
pub use runner::{run_corpus, run_sequence, ProfileRun};
