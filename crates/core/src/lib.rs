//! # triplec (triplec-core)
//!
//! The primary contribution of the paper: **Triple-C**, a prediction model
//! for **C**omputation time, **C**ache-memory usage and
//! **C**ommunication-bandwidth usage of groups of dynamic image-processing
//! tasks, employing scenario-based Markov chains (Albers, Suijs, de With,
//! IPDPS 2009).
//!
//! Model structure (Section 4 and 5 of the paper):
//!
//! * [`ewma`] — the EWMA low-pass filter of Eq. 1 separating long-term
//!   structural fluctuations from short-term stochastic ones;
//! * [`quantize`] — adaptive equal-mass state quantization with the
//!   `M = Cmax/sigma` (×2) state-count heuristic;
//! * [`markov`] — transition-matrix estimation (Eq. 2), prediction,
//!   sampling and stationary analysis;
//! * [`linear`] — the linear ROI-growth model of Eq. 3;
//! * [`stats`] — mean, deviation and autocorrelation of a series;
//! * [`predictor`] — the per-task composite predictors of Table 2(b);
//! * [`snapshot`] — the validated byte format of model snapshots
//!   ([`TripleC::snapshot_bytes`] / [`TripleC::try_restore_bytes`]):
//!   corrupt bytes are an `Err`, never a panic;
//! * [`scenario`] — the eight switch scenarios, the [`TaskSet`] each one
//!   runs, and the scenario-level Markov chain ("scenario-based Markov
//!   chains"); a task is a [`Task`], re-exported from `triplec-platform`;
//! * [`memory_model`] — the Table 1 memory requirements;
//! * [`bandwidth_model`] — inter-task (Fig. 2) and intra-task (Fig. 5)
//!   bandwidth prediction on top of `triplec-platform`'s space-time model;
//! * [`accuracy`](mod@accuracy) — the 97%/90% accuracy metrics of Section 7;
//! * [`training`] — model selection and corpus training;
//! * [`triple`] — the [`TripleC`] facade used by the
//!   runtime manager. It holds one model per trained task, of the class
//!   model selection picked; a `clone()` is an independent per-stream
//!   copy.

pub mod accuracy;
pub mod bandwidth_model;
pub mod ewma;
pub mod linear;
pub mod markov;
pub mod memory_model;
mod model;
pub mod predictor;
pub mod quantize;
pub mod scenario;
pub mod snapshot;
pub mod stats;
pub mod training;
pub mod triple;

pub use accuracy::{accuracy, evaluate, AccuracyReport};
pub use ewma::{decompose, Ewma};
pub use linear::LinearModel;
pub use markov::MarkovChain;
pub use memory_model::{implementation_table, paper_table1, FrameGeometry, TaskMemory};
pub use platform::task::{Task, TaskSet};
pub use predictor::{
    ConstantPredictor, EwmaMarkovPredictor, LinearMarkovPredictor, PredictContext, Prediction,
};
pub use quantize::Quantizer;
pub use scenario::{Scenario, ScenarioChain, ScenarioScript, ScriptSegment};
pub use snapshot::SnapshotError;
pub use training::{ModelKind, TaskSeries};
pub use triple::{FramePrediction, TripleC, TripleCConfig};
