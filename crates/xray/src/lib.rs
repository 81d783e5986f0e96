//! # triplec-xray
//!
//! Synthetic X-ray coronary angiography substrate for the Triple-C
//! reproduction. The paper trained and evaluated on proprietary clinical
//! sequences (37 sequences, 1,921 frames); this crate generates sequences
//! with the same *statistical* structure — the properties the prediction
//! models actually consume:
//!
//! * long-term correlated content load (contrast drift, AR(1) component) →
//!   the low-frequency part captured by the EWMA filter (Eq. 1),
//! * short-term stochastic load fluctuations (noise, jitter, per-frame
//!   candidate counts) → the Markov-chain part,
//! * scripted scenario switches (bolus ⇒ RDG on, hidden device ⇒ no ROI,
//!   panning ⇒ registration failure) → the flow-graph dynamics of Fig. 2,
//! * a rigid-motion device with ground-truth marker positions → end-to-end
//!   verification of the imaging pipeline.
//!
//! Modules: [`phantom`] (vessel tree), [`device`] (markers/wire/stent),
//! [`motion`] (cardiac + respiratory), [`noise`] (quantum + electronic),
//! [`scenario`] (content scripting), [`canvas`] (absorber stamps and the
//! row kernels that paint them), [`sequence`] (frame streaming: each frame
//! renders in row bands on the stripe pool, bit-identical at any band
//! count), [`dataset`] (paper-shaped corpora).

pub mod canvas;
pub mod dataset;
pub mod device;
pub mod motion;
pub mod noise;
pub mod phantom;
pub mod scenario;
pub mod sequence;

pub use dataset::{long_trace_sequence, test_corpus, training_corpus};
pub use device::DeviceConfig;
pub use motion::{MotionConfig, MotionState};
pub use noise::NoiseConfig;
pub use phantom::PhantomConfig;
pub use scenario::{ContentState, HiddenEpisode, ScenarioConfig};
pub use sequence::{Frame, GroundTruth, SequenceConfig, SequenceGenerator};
