//! # triplec-imaging
//!
//! Image-processing substrate of the Triple-C reproduction: from-scratch
//! implementations of every task of the motion-compensated stent
//! enhancement flow graph (Fig. 2 of the paper):
//!
//! | Task | Module | Role |
//! |---|---|---|
//! | RDG (FULL/ROI) | [`ridge`] | multi-scale Hessian ridge detection and suppression |
//! | MKX EXT | [`markers`] | punctual dark-zone (balloon marker) extraction |
//! | CPLS SEL | [`couples`] | a-priori-distance marker couple selection |
//! | REG | [`registration`] | rigid temporal registration + motion criterion |
//! | ROI EST | [`roi_est`] | data-dependent region-of-interest estimation |
//! | GW EXT | [`guidewire`] | ridge-following guide-wire verification |
//! | ENH | [`enhance`] | motion-compensated temporal integration |
//! | ZOOM | [`zoom`](mod@zoom) | ROI magnification for display |
//!
//! GW EXT, ENH and ZOOM each have one entry point, the pooled one the
//! pipeline executor calls (`gw_extract_with`, `EnhState::accumulate` +
//! `readout_into`, `zoom_band_with`): scratch and outputs are caller-owned,
//! so warm frames allocate nothing.
//!
//! Supporting modules: [`image`] (buffers, ROIs, stripes), [`kernel`]
//! (separable Gaussian-derivative convolution), [`hessian`]
//! (eigenvalue-based ridge/blob responses), [`fused`] (tiled single-pass
//! SIMD multi-scale Hessian core), [`simd`] (explicit 8-lane `f32`
//! vectors) and [`parallel`] (the persistent worker pool that striped
//! stages of the semi-automatic parallelization run on).
//!
//! All tasks expose their buffer sizes so the Table-1 memory accounting and
//! the cache/bandwidth models of `triplec-core` can be derived from the
//! actual implementation rather than hard-coded constants.

pub mod couples;
pub mod enhance;
pub mod fused;
pub mod guidewire;
pub mod hessian;
pub mod image;
pub mod io;
pub mod kernel;
pub mod markers;
pub mod parallel;
pub mod registration;
pub mod ridge;
pub mod roi_est;
pub mod simd;
pub mod zoom;

pub use couples::{cpls_select, Couple, CplsConfig, CplsOutput};
pub use enhance::{EnhConfig, EnhState};
pub use guidewire::{gw_extract_with, GwConfig, GwOutput};
pub use image::{Image, ImageF32, ImageU16, Pixel, Roi};
pub use io::write_pgm8;
pub use markers::{mkx_extract, Marker, MkxBuffers, MkxConfig, MkxOutput};
pub use registration::{register, RegConfig, RegOutput, RigidTransform};
pub use ridge::{rdg_banded, rdg_full, rdg_roi, RdgBuffers, RdgConfig, RdgOutput};
pub use roi_est::{estimate_roi, RoiEstConfig};
pub use zoom::{zoom_band_with, ZoomConfig};
