//! RDG — ridge detection and filtering.
//!
//! The first stage of the flow graph (Fig. 2): a multi-scale Hessian ridge
//! filter detects elongated dark structures (vessels, guide wires) so that
//! they can be *removed* from the image, leaving only punctual dark zones
//! (the candidate balloon markers) for the marker-extraction stage.
//!
//! The task exists in two granularities, `RDG FULL` (whole frame) and
//! `RDG ROI` (region-of-interest only), matching Table 1 of the paper. Its
//! computation time is linear in the processed area (Fig. 6) with
//! content-dependent fluctuations on top, caused by the ridge-tracing pass
//! whose cost grows with the amount of curvilinear structure in the frame —
//! exactly the structural + stochastic split Triple-C models.
//!
//! There is one kernel. It runs the paper's three linear-scan subtasks
//! over one set of shared buffers (Fig. 5) and takes the stripe count as a
//! parameter (Fig. 6): stage A once, stage B as one job per row band of
//! the ROI, the response statistics once, stage C per band with the
//! *global* thresholds. Every band writes its own rows of the shared
//! images, so the output pixels do not depend on the stripe count.

use std::time::Instant;

use crate::fused::{fused_ridge_scale, fused_ridge_scale_init, FusedScratch};
use crate::hessian::{
    accumulate_max_response, hessian_at_scale, ridge_response, KernelCache, ReferenceScratch,
};
use crate::image::{ImageF32, ImageU16, Roi};
use crate::parallel::{PoolError, StripeFault, StripePool};
use crate::simd::{narrow_row, F32x8, SimdF32, LANES};

/// Configuration of the ridge-detection task.
#[derive(Debug, Clone)]
pub struct RdgConfig {
    /// Base Gaussian scales (sigma, pixels) of the multi-scale filter,
    /// always processed.
    pub scales: Vec<f32>,
    /// Fine refinement scales, processed only when `fine_enabled` — the
    /// coarse-to-fine adaptation that makes RDG cost content-dependent
    /// ("depending on the image content ... the analysis algorithm may
    /// switch", Section 1).
    pub fine_scales: Vec<f32>,
    /// Whether the fine scales run this frame. The pipeline derives this
    /// per frame from the structure probe; standalone callers keep the
    /// default (enabled), which processes the full scale set.
    pub fine_enabled: bool,
    /// Threshold on the ridge response, as a fraction of the response
    /// standard deviation, above which a pixel is considered ridge.
    pub threshold_factor: f32,
    /// Weak (hysteresis) threshold factor: an 8-connected region above
    /// `mean + weak_factor * std` is ridge when it holds a strong pixel.
    pub weak_factor: f32,
    /// Absolute response floor for both thresholds, calibrated above the
    /// quantum-noise response of the detector. Purely relative thresholds
    /// would adapt away the contrast dependence (and flood noise regions
    /// on quiet frames); the floor keeps the traced work proportional to
    /// the amount of real structure.
    pub response_floor: f32,
    /// Strength of ridge suppression in the filtered output: suppressed
    /// intensity = original + `suppression` * ridgeness (brightening dark
    /// ridges back to background level).
    pub suppression: f32,
}

impl Default for RdgConfig {
    fn default() -> Self {
        Self {
            scales: vec![1.5, 2.5],
            fine_scales: vec![4.0],
            fine_enabled: true,
            threshold_factor: 2.0,
            weak_factor: 0.25,
            response_floor: 32.0,
            suppression: 1.0,
        }
    }
}

impl RdgConfig {
    /// The scales one call folds, in sweep order: the base scales, then
    /// the fine ones when `fine_enabled`.
    fn active_scales(&self) -> Vec<f32> {
        let fine: &[f32] = if self.fine_enabled {
            &self.fine_scales
        } else {
            &[]
        };
        self.scales.iter().chain(fine).copied().collect()
    }
}

/// What one row band's jobs write besides their rows of the shared images.
/// None of it is frame-sized: a `k`-stripe call needs `k` of these, i.e.
/// `k - 1` tile rings more than a serial one.
#[derive(Debug, Default)]
struct BandScratch {
    /// Stage B: the fused sweep's row-filtered tile ring.
    ring: FusedScratch,
    /// Stage C: the band's run list and linking-window column sums.
    trace: RunScratch,
    /// Stage C: what the band's trace counted.
    ridge_pixels: usize,
    segments: usize,
}

/// One maximal run of above-weak pixels in a row: columns `x0..=x1` of row
/// `y`, frame coordinates. `strong` says whether one of its pixels is above
/// the strong threshold; after the unions, a root run's flag speaks for its
/// whole component.
#[derive(Debug, Clone, Copy)]
struct Run {
    y: u32,
    x0: u32,
    x1: u32,
    strong: bool,
}

/// Working memory of [`trace_runs`]. It grows with the structure traced,
/// never with the frame.
#[derive(Debug, Default)]
struct RunScratch {
    /// The band's runs in row-major order.
    runs: Vec<Run>,
    /// Union-find parent of each run; a root is its component's first run.
    parent: Vec<u32>,
    /// gx², gy² and gx·gy column sums of one run's linking windows.
    sums: [Vec<f32>; 3],
}

/// Where the wall-clock time of one RDG call (or one
/// [`ridge_response_banded`] sweep) went. `serial_ms` plus every entry of
/// `band_ms` is the call's whole work; on a platform that runs the bands
/// side by side its latency is `serial_ms` plus the longest band.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RdgTimes {
    /// Milliseconds on the calling thread outside the band jobs: stage A,
    /// the global response statistics and the output-image set-up.
    pub serial_ms: f64,
    /// Milliseconds each band spent in its stage-B and stage-C jobs, in
    /// band order (top to bottom). Empty when a sweep had nothing to fold.
    pub band_ms: Vec<f64>,
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Reusable working memory of the RDG task. These buffers are the
/// "intermediate" storage of Table 1 and the A/B/C buffers of Fig. 5; one
/// set serves every stripe count.
#[derive(Debug)]
pub struct RdgBuffers {
    /// A: the input frame converted to f32.
    src_f32: ImageF32,
    /// Per-band scratch, grown to the largest stripe count seen.
    bands: Vec<BandScratch>,
    /// Per-sigma `(G, G', G'')` cache shared by all bands.
    kernels: KernelCache,
    /// Full-frame intermediates of the oracle, `None` until
    /// [`rdg_roi_reference`] runs.
    reference: Option<Box<ReferenceScratch>>,
    /// C: the multi-scale ridge-response accumulator.
    acc: ImageF32,
    /// What `acc` holds since the last successful call: the maximum over
    /// these scales of the response, everywhere inside this ROI. `None`
    /// after a failed sweep and after [`ridge_response_banded`], whose
    /// window is part response, part zeros.
    swept: Option<(Roi, Vec<f32>)>,
    /// Recycled output images (see [`RdgBuffers::recycle`]); a ridgeness
    /// image comes with the ROI outside which it is known to be zero.
    u16_pool: Vec<ImageU16>,
    f32_pool: Vec<(ImageF32, Roi)>,
    /// Image allocations performed by the output pool; stays constant once
    /// the pool is warm (asserted by tests).
    allocations: usize,
    /// Breakdown of the most recent call.
    times: RdgTimes,
}

impl RdgBuffers {
    /// Allocates buffers for `width x height` frames.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            src_f32: ImageF32::new(width, height),
            bands: Vec::new(),
            kernels: KernelCache::new(),
            reference: None,
            acc: ImageF32::new(width, height),
            swept: None,
            u16_pool: Vec::new(),
            f32_pool: Vec::new(),
            allocations: 0,
            times: RdgTimes::default(),
        }
    }

    /// Total intermediate storage in bytes (Table 1 accounting), including
    /// any recycled output images currently parked in the pool and — if the
    /// oracle ever ran — its full-frame intermediates.
    pub fn byte_size(&self) -> usize {
        self.src_f32.byte_size()
            + self.bands.iter().map(|b| b.ring.byte_size()).sum::<usize>()
            + self.kernels.byte_size()
            + self.reference.as_ref().map_or(0, |r| r.byte_size())
            + self.acc.byte_size()
            + self.u16_pool.iter().map(|i| i.byte_size()).sum::<usize>()
            + self
                .f32_pool
                .iter()
                .map(|(i, _)| i.byte_size())
                .sum::<usize>()
    }

    /// Returns a finished output's images for reuse by the next frame: the
    /// steady-state sequence path performs zero per-frame heap allocation.
    /// `out.ridgeness` must still be zero outside the ROI it was made for
    /// (it is unless the caller wrote to it): the next call clears only
    /// what that ROI covers and its own does not.
    ///
    /// The pipeline has one output in flight per frame and so parks one
    /// pair. The second slot serves callers that hold two at once, as the
    /// RDG-then-RDG composition GW EXT used to be (the benchmark's shadow
    /// of it, the identity tests' oracle) still does.
    pub fn recycle(&mut self, out: RdgOutput) {
        if self.u16_pool.len() < 2 {
            self.u16_pool.push(out.filtered);
        }
        if self.f32_pool.len() < 2 {
            self.f32_pool.push((out.ridgeness, out.roi));
        }
    }

    /// Number of output-image allocations performed so far; a warmed-up
    /// buffer set stops allocating (asserted by tests).
    pub fn allocations(&self) -> usize {
        self.allocations
    }

    /// Where the time of the most recent successful call went. Feeds the
    /// executor's task times and stage events.
    pub fn times(&self) -> &RdgTimes {
        &self.times
    }

    /// The response accumulator, in frame coordinates. Defined where the
    /// most recent successful call says it is: inside the ROI of an RDG
    /// call, inside the window of a [`ridge_response_banded`] sweep.
    pub fn response(&self) -> &ImageF32 {
        &self.acc
    }

    pub(crate) fn dims(&self) -> (usize, usize) {
        self.src_f32.dims()
    }

    /// A pooled copy of `src` for the filtered output.
    fn take_filtered(&mut self, src: &ImageU16) -> ImageU16 {
        match self.u16_pool.pop() {
            Some(mut img) if img.dims() == src.dims() => {
                img.copy_from(src);
                img
            }
            _ => {
                self.allocations += 1;
                src.clone()
            }
        }
    }

    /// A pooled ridgeness image, zero everywhere stage C will not
    /// overwrite (i.e. outside `roi`). The pooled image is zero outside the
    /// ROI it was last written with, so only that ROI's pixels outside
    /// `roi` are cleared — ROI-sized work while tracking, everything
    /// outside `roi` after a full-frame call. The interior is left as stale
    /// pool data: stage C copies the response over every interior pixel.
    fn take_ridgeness(&mut self, width: usize, height: usize, roi: Roi) -> ImageF32 {
        match self.f32_pool.pop() {
            Some((mut img, written)) if img.dims() == (width, height) => {
                zero_outside(&mut img, written, roi);
                img
            }
            _ => {
                self.allocations += 1;
                ImageF32::new(width, height)
            }
        }
    }
}

/// Zeroes the pixels of `outer` that `keep` does not cover. Both lie inside
/// `img`; `keep` need not lie inside `outer`.
fn zero_outside(img: &mut ImageF32, outer: Roi, keep: Roi) {
    for y in outer.y..outer.bottom() {
        let row = &mut img.row_mut(y)[outer.x..outer.right()];
        if y < keep.y || y >= keep.bottom() {
            row.fill(0.0);
        } else {
            // `keep`'s columns relative to `outer`'s left edge
            let left = keep.x.saturating_sub(outer.x).min(row.len());
            let right = keep.right().saturating_sub(outer.x).min(row.len());
            row[..left].fill(0.0);
            row[right..].fill(0.0);
        }
    }
}

/// Result of the RDG task.
#[derive(Debug, Clone)]
pub struct RdgOutput {
    /// The ridge-suppressed frame handed to marker extraction.
    pub filtered: ImageU16,
    /// The multi-scale ridge-response map: a copy of the accumulator GW
    /// EXT reads through [`RdgBuffers::response`].
    pub ridgeness: ImageF32,
    /// Number of pixels classified as ridge (content-dependent load
    /// proxy), summed over the bands: each band traces its own rows, so a
    /// weak pixel linked to a strong one only across a band boundary is
    /// not counted.
    pub ridge_pixels: usize,
    /// Number of connected ridge segments traced, summed over the bands (a
    /// segment crossing a band boundary counts once per band it has a
    /// strong pixel in).
    pub segments: usize,
    /// The ROI of the call: `ridgeness` is zero outside it.
    roi: Roi,
}

impl RdgOutput {
    /// Output storage in bytes (Table 1 accounting).
    pub fn byte_size(&self) -> usize {
        self.filtered.byte_size() + self.ridgeness.byte_size()
    }
}

/// Runs ridge detection on the full frame.
pub fn rdg_full(src: &ImageU16, cfg: &RdgConfig, bufs: &mut RdgBuffers) -> RdgOutput {
    rdg_roi(src, src.full_roi(), cfg, bufs)
}

/// Runs ridge detection restricted to `roi`, as one band on the calling
/// thread. Pixels outside the ROI pass through unfiltered with zero
/// ridgeness.
pub fn rdg_roi(src: &ImageU16, roi: Roi, cfg: &RdgConfig, bufs: &mut RdgBuffers) -> RdgOutput {
    rdg_kernel(src, roi, cfg, bufs, Bands::One { oracle: false })
        .expect("a lone inline band has no dispatch to fail")
}

/// [`rdg_roi`] split into `stripes` row bands of `roi`. More than one band
/// makes stages B and C one `pool` job per band; one band runs inline
/// exactly as [`rdg_roi`] does. `filtered` and `ridgeness` are
/// bit-identical to [`rdg_roi`] for every stripe count, and per-band times
/// land in [`RdgBuffers::times`].
///
/// `fault` injects deterministic failures into the first banded dispatch
/// (testing only): the call then returns the [`PoolError`] having written
/// no output, and a clean retry is bit-identical to an unfaulted call. A
/// call with a single band dispatches nothing and so cannot fail.
pub fn rdg_banded(
    pool: &StripePool,
    src: &ImageU16,
    roi: Roi,
    cfg: &RdgConfig,
    stripes: usize,
    fault: StripeFault,
    bufs: &mut RdgBuffers,
) -> Result<RdgOutput, PoolError> {
    let bands = Bands::Striped {
        pool,
        stripes,
        fault,
    };
    rdg_kernel(src, roi, cfg, bufs, bands)
}

/// [`rdg_roi`] with stage B computed by the original unfused engine: three
/// `convolve_rows` + three `convolve_cols` passes per scale through
/// full-frame intermediates, then a separate response/accumulate pass.
/// Bit-identical to the fused sweep by contract; kept as the oracle tests
/// diff it against. Always one band, inline.
pub fn rdg_roi_reference(
    src: &ImageU16,
    roi: Roi,
    cfg: &RdgConfig,
    bufs: &mut RdgBuffers,
) -> RdgOutput {
    rdg_kernel(src, roi, cfg, bufs, Bands::One { oracle: true })
        .expect("a lone inline band has no dispatch to fail")
}

/// The ridge response GW EXT samples, without the rest of an RDG call:
/// afterwards [`RdgBuffers::response`] equals, everywhere inside `window`,
/// the `ridgeness` [`rdg_roi`] returns for `roi` under `cfg` — the response
/// inside `roi`, `0.0` outside it — bit for bit. No tracing, no output
/// images.
///
/// Pass `same_frame` when the last successful call on `bufs` read this very
/// `src`. If that was an RDG call whose scale list is a prefix of `cfg`'s
/// and whose ROI covers `window ∩ roi`, the accumulator it left is kept and
/// only `cfg`'s remaining scales are folded in (the response is pointwise
/// and a maximum over scales); otherwise every scale is swept. Either way
/// the work is stage A and stage B over `window ∩ roi`, as `stripes` row
/// bands like [`rdg_banded`]'s, with `fault` and [`RdgBuffers::times`]
/// meaning what they mean there; a failed sweep can simply be repeated.
#[allow(clippy::too_many_arguments)]
pub fn ridge_response_banded(
    pool: &StripePool,
    src: &ImageU16,
    window: Roi,
    roi: Roi,
    cfg: &RdgConfig,
    same_frame: bool,
    stripes: usize,
    fault: StripeFault,
    bufs: &mut RdgBuffers,
) -> Result<(), PoolError> {
    let (w, h) = src.dims();
    let window = window.clamp_to(w, h);
    let region = window.intersect(&roi);
    let scales = cfg.active_scales();
    let folded = match bufs.swept.take() {
        Some((swept, have))
            if same_frame && swept.intersect(&region) == region && scales.starts_with(&have) =>
        {
            have.len()
        }
        _ => 0,
    };
    let bands = Bands::Striped {
        pool,
        stripes,
        fault,
    };
    response_sweep(src, region, &scales[folded..], folded == 0, bufs, bands)?;
    // `roi` stops short of the window only where ROI EST hit its size cap
    // or the frame edge.
    let t0 = Instant::now();
    zero_outside(&mut bufs.acc, window, region);
    bufs.times.serial_ms += ms_since(t0);
    Ok(())
}

/// How one kernel call lays out and runs its bands.
enum Bands<'a> {
    /// One band, inline; `oracle` swaps stage B for the unfused engine.
    One { oracle: bool },
    /// `stripes` bands; more than one are dispatched to `pool`.
    Striped {
        pool: &'a StripePool,
        stripes: usize,
        fault: StripeFault,
    },
}

/// Runs one stage's band jobs: a lone band inline on the calling thread
/// (no pool hop, no boxing, no `catch_unwind`), several on the pool.
fn run_bands<'s, J: FnOnce() + Send + 's>(
    pool: Option<&StripePool>,
    bands: usize,
    jobs: impl Iterator<Item = J>,
) -> Result<(), PoolError> {
    if bands <= 1 {
        jobs.for_each(|job| job());
        return Ok(());
    }
    pool.expect("only a one-band call runs without a pool")
        .try_run(
            jobs.map(|job| Box::new(job) as Box<dyn FnOnce() + Send + 's>)
                .collect(),
        )
}

/// Stages A and B, the part of the kernel that makes the response: folds
/// `scales` over `region` (already clamped to the frame) into `bufs.acc`,
/// one job per row band. With `init` the first scale overwrites the
/// accumulator; without, all of them fold into what it holds. Starts
/// `bufs.times` afresh and returns the pool and the bands, for stage C.
fn response_sweep<'a>(
    src: &ImageU16,
    region: Roi,
    scales: &[f32],
    init: bool,
    bufs: &mut RdgBuffers,
    bands: Bands<'a>,
) -> Result<(Option<&'a StripePool>, Vec<Roi>), PoolError> {
    assert_eq!(
        src.dims(),
        bufs.dims(),
        "buffer geometry must match the frame"
    );
    assert!(!(init && scales.is_empty()), "at least one scale required");
    let (w, h) = src.dims();
    let (pool, stripes, fault, oracle) = match bands {
        Bands::One { oracle } => (None, 1, StripeFault::default(), oracle),
        Bands::Striped {
            pool,
            stripes,
            fault,
        } => (Some(pool), stripes, fault, false),
    };
    bufs.swept = None;
    bufs.times.serial_ms = 0.0;
    bufs.times.band_ms.clear();
    if scales.is_empty() {
        return Ok((pool, Vec::new()));
    }
    let parts = region.stripes(stripes);
    // A fault needs a dispatch to fail, and a lone band has none.
    let fault = if parts.len() > 1 {
        fault
    } else {
        StripeFault::default()
    };
    if fault.channel_error {
        return Err(PoolError::Disconnected);
    }
    if bufs.bands.len() < parts.len() {
        bufs.bands.resize_with(parts.len(), BandScratch::default);
    }
    bufs.times.band_ms.resize(parts.len(), 0.0);

    // Stage A: integer-to-float conversion (streaming pass over the input),
    // once for the whole region plus the halo every band's sweep reads.
    let t0 = Instant::now();
    let halo = scales
        .iter()
        .map(|&s| (3.0 * s).ceil() as usize)
        .max()
        .unwrap_or(0);
    let conv_roi = region.inflate(halo, w, h);
    for y in conv_roi.y..conv_roi.bottom() {
        // Slice-wise widening lets the compiler emit packed u16→f32
        // conversions (no per-element bounds checks to defeat it).
        let s = &src.row(y)[conv_roi.x..conv_roi.right()];
        let d = &mut bufs.src_f32.row_mut(y)[conv_roi.x..conv_roi.right()];
        for (d, &s) in d.iter_mut().zip(s) {
            *d = s as f32;
        }
    }

    // Stage B: multi-scale Hessian ridge response, max over scales. Each
    // band sweeps its rows of the shared accumulator with its own ring.
    if oracle {
        if init {
            for y in region.y..region.bottom() {
                bufs.acc.row_mut(y)[region.x..region.right()].fill(0.0);
            }
        }
        let RdgBuffers {
            src_f32,
            reference,
            acc,
            ..
        } = &mut *bufs;
        let rs = reference.get_or_insert_with(|| Box::new(ReferenceScratch::new(w, h)));
        for &sigma in scales {
            hessian_at_scale(src_f32, &mut rs.hessian, &mut rs.conv, region, sigma);
            accumulate_max_response(&rs.hessian, acc, region, ridge_response);
        }
        bufs.times.serial_ms = ms_since(t0);
    } else {
        // Destructure for disjoint borrows of the scratch fields.
        let RdgBuffers {
            src_f32,
            bands,
            kernels,
            acc,
            times,
            ..
        } = &mut *bufs;
        let kernels = kernels.get_all(scales);
        let src_f32 = &*src_f32;
        // An overwriting first scale is bit-identical to zeroing +
        // accumulating, without the extra pass; the others fold in with
        // `max`.
        let sweep = |band: Roi, rows: &mut [f32], ring: &mut FusedScratch| {
            for (k, &(g, d1, d2)) in kernels.iter().enumerate() {
                if init && k == 0 {
                    fused_ridge_scale_init(src_f32, rows, ring, g, d1, d2, band);
                } else {
                    fused_ridge_scale(src_f32, rows, ring, g, d1, d2, band);
                }
            }
        };
        let sweep = &sweep;
        times.serial_ms = ms_since(t0);
        let jobs = parts
            .iter()
            .zip(acc.row_bands(&parts))
            .zip(bands.iter_mut().zip(&mut times.band_ms))
            .enumerate()
            .map(|(i, ((&band, rows), (scratch, ms)))| {
                move || {
                    if i < fault.panic_jobs {
                        // injected fault: dies at job start, before any write
                        panic!("injected stripe-worker fault (job {i})");
                    }
                    let t0 = Instant::now();
                    sweep(band, rows, &mut scratch.ring);
                    *ms = ms_since(t0);
                }
            });
        run_bands(pool, parts.len(), jobs)?;
    }
    Ok((pool, parts))
}

/// The RDG kernel — the response sweep, then stage C. Every entry point
/// that returns an [`RdgOutput`] is this function.
fn rdg_kernel(
    src: &ImageU16,
    roi: Roi,
    cfg: &RdgConfig,
    bufs: &mut RdgBuffers,
    bands: Bands<'_>,
) -> Result<RdgOutput, PoolError> {
    let (w, h) = src.dims();
    let roi = roi.clamp_to(w, h);
    let scales = cfg.active_scales();
    let oracle = matches!(bands, Bands::One { oracle: true });
    let (pool, parts) = response_sweep(src, roi, &scales, true, bufs, bands)?;
    bufs.swept = Some((roi, scales));

    // Stage C: hysteresis thresholding — every weak-threshold component
    // holding a strong pixel is ridge (data-dependent cost) — and synthesis
    // of the ridge-suppressed output. The thresholds come from the whole
    // ROI, so no band's pixels depend on where the band boundaries fall.
    let t0 = Instant::now();
    let (mean, std) = response_stats(&bufs.acc, roi);
    let weak_threshold = (mean + cfg.weak_factor * std).max(cfg.response_floor);
    let threshold = (mean + cfg.threshold_factor * std).max(weak_threshold);
    let mut filtered = bufs.take_filtered(src);
    let mut ridgeness = bufs.take_ridgeness(w, h, roi);
    bufs.times.serial_ms += ms_since(t0);

    let dispatched = {
        let RdgBuffers {
            bands,
            acc,
            reference,
            times,
            ..
        } = &mut *bufs;
        let acc = &*acc;
        // The oracle traces by flood fill over its own visited mask, the
        // ROI's full-width rows; it always runs one band.
        let mut visited = reference.as_deref_mut().filter(|_| oracle).map(|rs| {
            rs.visited.resize(w * h, false);
            &mut rs.visited[..roi.height * w]
        });
        // One band's rows of the two outputs, from the shared response.
        let synthesize = |band: Roi, filtered: &mut [u16], ridgeness: &mut [f32]| {
            for y in band.y..band.bottom() {
                let acc_row = &acc.row(y)[band.x..band.right()];
                let o = (y - band.y) * w;
                let rid_row = &mut ridgeness[o + band.x..o + band.right()];
                // Copy the response into the ridgeness output while tracking
                // the row maximum in the same SIMD pass; rows whose response
                // never exceeds the strong threshold (the common case) skip
                // the brighten scan entirely. Same per-pixel results as the
                // original interleaved loop.
                let mut vmax = F32x8::splat(f32::NEG_INFINITY);
                let lanes = F32x8::WIDTH;
                let n = acc_row.len() - acc_row.len() % lanes;
                let mut row_max = f32::NEG_INFINITY;
                let mut x = 0;
                while x < n {
                    let a = F32x8::load(&acc_row[x..x + lanes]);
                    a.store(&mut rid_row[x..x + lanes]);
                    vmax = F32x8::select_gt(a, vmax, a, vmax);
                    x += lanes;
                }
                let mut folded = [0.0f32; 8];
                vmax.store(&mut folded);
                for &m in &folded[..if n > 0 { lanes } else { 0 }] {
                    row_max = row_max.max(m);
                }
                for x in n..acc_row.len() {
                    rid_row[x] = acc_row[x];
                    row_max = row_max.max(acc_row[x]);
                }
                if row_max > threshold {
                    let out_row = &mut filtered[o + band.x..o + band.right()];
                    brighten_row(out_row, acc_row, threshold, cfg.suppression);
                }
            }
        };
        let synthesize = &synthesize;
        let jobs = parts
            .iter()
            .zip(filtered.row_bands(&parts).zip(ridgeness.row_bands(&parts)))
            .zip(bands.iter_mut().zip(&mut times.band_ms))
            .map(|((&band, (filtered, ridgeness)), (scratch, ms))| {
                let visited = visited.take();
                move || {
                    let t0 = Instant::now();
                    let (pixels, segments, coherence) = match visited {
                        Some(visited) => {
                            trace_segments(acc, band, threshold, weak_threshold, visited)
                        }
                        None => {
                            trace_runs(acc, band, threshold, weak_threshold, &mut scratch.trace)
                        }
                    };
                    // the linking scores are a byproduct (kept from being
                    // optimized away); nothing downstream needs them
                    std::hint::black_box(coherence);
                    (scratch.ridge_pixels, scratch.segments) = (pixels, segments);
                    synthesize(band, filtered, ridgeness);
                    *ms += ms_since(t0);
                }
            });
        run_bands(pool, parts.len(), jobs)
    };
    let traced = &bufs.bands[..parts.len()];
    let out = RdgOutput {
        filtered,
        ridgeness,
        ridge_pixels: traced.iter().map(|b| b.ridge_pixels).sum(),
        segments: traced.iter().map(|b| b.segments).sum(),
        roi,
    };
    match dispatched {
        Ok(()) => Ok(out),
        Err(e) => {
            // A failed attempt keeps its output images for the retry.
            bufs.recycle(out);
            Err(e)
        }
    }
}

/// Ridge-suppression synthesis of one output row: pixels whose response
/// exceeds `threshold` are brightened by `suppression * response` and
/// clamped; the rest pass through unchanged.
///
/// Lane-chunked form of the scalar `if r > threshold { o = clamp(o + s*r) }`
/// loop: both branches are computed in f32 and lane-selected on the same
/// strict-`>` test. u16 values round-trip through f32 exactly, so the
/// unselected lanes narrow back to themselves and [`narrow_row`] reproduces
/// the scalar clamp and cast bit for bit.
fn brighten_row(out: &mut [u16], resp: &[f32], threshold: f32, suppression: f32) {
    assert_eq!(out.len(), resp.len());
    let thr = F32x8::splat(threshold);
    let sup = F32x8::splat(suppression);
    narrow_row(
        out,
        #[inline(always)]
        |i, old| {
            let r = F32x8::load(&resp[i..]);
            F32x8::select_gt(r, thr, old + sup * r, old)
        },
        // brighten the dark ridge back toward background
        |j, old| {
            if resp[j] > threshold {
                old + suppression * resp[j]
            } else {
                old
            }
        },
    );
}

/// Mean and standard deviation of the response inside `roi`.
///
/// Kept out of line: inlined into the kernel, this loop compiles a third
/// slower (0.51 vs 0.38 ms over a 1024² response on the AVX-512 host).
#[inline(never)]
pub(crate) fn response_stats(acc: &ImageF32, roi: Roi) -> (f32, f32) {
    let n = roi.area();
    if n == 0 {
        return (0.0, 0.0);
    }
    // Four independent accumulator chains per moment hide the f64 add
    // latency; the chains are folded once at the end.
    let mut s = [0.0f64; 4];
    let mut q = [0.0f64; 4];
    for y in roi.y..roi.bottom() {
        let row = &acc.row(y)[roi.x..roi.right()];
        let mut chunks = row.chunks_exact(4);
        for c in &mut chunks {
            for k in 0..4 {
                let v = c[k] as f64;
                s[k] += v;
                q[k] += v * v;
            }
        }
        for &v in chunks.remainder() {
            let v = v as f64;
            s[0] += v;
            q[0] += v * v;
        }
    }
    let sum = (s[0] + s[1]) + (s[2] + s[3]);
    let sum2 = (q[0] + q[1]) + (q[2] + q[3]);
    let mean = sum / n as f64;
    let var = (sum2 / n as f64 - mean * mean).max(0.0);
    (mean as f32, var.sqrt() as f32)
}

/// Half-width of the linking analysis' structure-tensor window (9 × 9).
const HALF_WINDOW: usize = 4;

/// Length of the orientation-continuity walk, in pixels.
const WALK_STEPS: usize = 6;

/// How far from the frame edge a pixel must lie for its linking analysis
/// to stay in bounds: the window reaches `HALF_WINDOW + 1` pixels (central
/// differences), the walk `WALK_STEPS` plus its bilinear support.
const MARGIN: usize = if HALF_WINDOW + 1 > WALK_STEPS + 2 {
    HALF_WINDOW + 1
} else {
    WALK_STEPS + 2
};

/// Linking score of a traced pixel from its windowed structure tensor
/// `(jxx, jyy, jxy)`: the orientation coherence plus a short walk along the
/// dominant orientation checking ridge continuity — the linking criterion
/// real ridge detectors apply per candidate pixel. Its per-pixel cost is
/// what makes the RDG stage-C time grow with the amount of structure in
/// the frame. `interior` pixels (at least [`MARGIN`] from every edge) walk
/// direct-indexed, the others with clamped samples.
fn linking_score(
    acc: &ImageF32,
    cx: usize,
    cy: usize,
    (jxx, jyy, jxy): (f32, f32, f32),
    interior: bool,
) -> f32 {
    let tr = jxx + jyy;
    if tr <= 1e-12 {
        return 0.0;
    }
    let diff = jxx - jyy;
    let disc = (diff * diff + 4.0 * jxy * jxy).sqrt();
    let coherence = disc / tr;

    // Continuity walk along the dominant (ridge) orientation: the
    // eigenvector of the larger structure-tensor eigenvalue. The
    // direction θ = ½·atan2(2jxy, diff) is recovered algebraically via
    // the half-angle identities (cos 2θ = diff/disc, sin 2θ = 2jxy/disc;
    // cos θ ≥ 0 and sin θ carries the sign of jxy over θ ∈ (−π/2, π/2]),
    // skipping the libm atan2/sin_cos calls entirely.
    let (sin_t, cos_t) = if disc > 0.0 {
        let c2 = diff / disc;
        let ct = ((1.0 + c2) * 0.5).max(0.0).sqrt();
        let st = ((1.0 - c2) * 0.5).max(0.0).sqrt();
        (if jxy < 0.0 { -st } else { st }, ct)
    } else {
        (0.0, 1.0)
    };
    let continuity = if interior {
        continuity_walk_interior(acc, cx, cy, sin_t, cos_t)
    } else {
        continuity_walk_clamped(acc, cx, cy, sin_t, cos_t)
    };
    coherence + 1e-6 * continuity
}

/// Continuity walk for interior pixels: the walk cannot leave the image
/// (margin ≥ steps + bilinear support), so samples are direct-indexed and
/// `floor` degenerates to integer truncation (coordinates stay positive).
fn continuity_walk_interior(acc: &ImageF32, cx: usize, cy: usize, sin_t: f32, cos_t: f32) -> f32 {
    let w = acc.width();
    let data = acc.as_slice();
    let mut continuity = 0.0f32;
    for step in 1..=WALK_STEPS {
        let fx = cx as f32 + cos_t * step as f32;
        let fy = cy as f32 + sin_t * step as f32;
        let x0 = fx as usize;
        let y0 = fy as usize;
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let i = y0 * w + x0;
        let v00 = data[i];
        let v10 = data[i + 1];
        let v01 = data[i + w];
        let v11 = data[i + w + 1];
        continuity += v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty;
    }
    continuity
}

/// Continuity walk with replicate-clamped bilinear sampling, for pixels
/// whose walk may cross the image border.
fn continuity_walk_clamped(acc: &ImageF32, cx: usize, cy: usize, sin_t: f32, cos_t: f32) -> f32 {
    let mut continuity = 0.0f32;
    for step in 1..=WALK_STEPS {
        let fx = cx as f32 + cos_t * step as f32;
        let fy = cy as f32 + sin_t * step as f32;
        // bilinear sample of the response along the walk
        let x0 = fx.floor() as isize;
        let y0 = fy.floor() as isize;
        let tx = fx - x0 as f32;
        let ty = fy - y0 as f32;
        let v00 = acc.get_clamped(x0, y0);
        let v10 = acc.get_clamped(x0 + 1, y0);
        let v01 = acc.get_clamped(x0, y0 + 1);
        let v11 = acc.get_clamped(x0 + 1, y0 + 1);
        continuity += v00 * (1.0 - tx) * (1.0 - ty)
            + v10 * tx * (1.0 - ty)
            + v01 * (1.0 - tx) * ty
            + v11 * tx * ty;
    }
    continuity
}

/// Structure tensor with replicate-clamped sampling, for windows touching
/// the image border.
fn structure_tensor_clamped(acc: &ImageF32, cx: usize, cy: usize) -> (f32, f32, f32) {
    let hw = HALF_WINDOW as isize;
    let mut jxx = 0.0f32;
    let mut jyy = 0.0f32;
    let mut jxy = 0.0f32;
    let (cxi, cyi) = (cx as isize, cy as isize);
    for dy in -hw..=hw {
        for dx in -hw..=hw {
            let gx =
                acc.get_clamped(cxi + dx + 1, cyi + dy) - acc.get_clamped(cxi + dx - 1, cyi + dy);
            let gy =
                acc.get_clamped(cxi + dx, cyi + dy + 1) - acc.get_clamped(cxi + dx, cyi + dy - 1);
            jxx += gx * gx;
            jyy += gy * gy;
            jxy += gx * gy;
        }
    }
    (jxx, jyy, jxy)
}

/// Column sums of the linking windows on row `cy`, for the `n` columns from
/// `x0`: entry `c` of `sums` is the ordered sum from `+0.0`, top row first,
/// of gx², gy² and gx·gy (central differences) over rows
/// `cy ± HALF_WINDOW` at column `x0 + c`. Eight columns per vector, the
/// tail one at a time; every lane is the tail's scalar chain, so the split
/// changes no bit. Every column read must lie inside the frame.
#[inline(always)]
fn column_sums(acc: &ImageF32, cy: usize, x0: usize, n: usize, sums: &mut [Vec<f32>; 3]) {
    for s in sums.iter_mut() {
        s.clear();
        s.resize(n, 0.0);
    }
    let [sxx, syy, sxy] = sums;
    let rows = cy - HALF_WINDOW..=cy + HALF_WINDOW;
    let wide = n - n % LANES;
    let zero = F32x8::splat(0.0);
    for c in (0..wide).step_by(LANES) {
        let x = x0 + c;
        let (mut vxx, mut vyy, mut vxy) = (zero, zero, zero);
        for y in rows.clone() {
            let (up, mid, dn) = (acc.row(y - 1), acc.row(y), acc.row(y + 1));
            let gx = F32x8::load(&mid[x + 1..]) - F32x8::load(&mid[x - 1..]);
            let gy = F32x8::load(&dn[x..]) - F32x8::load(&up[x..]);
            vxx = vxx + gx * gx;
            vyy = vyy + gy * gy;
            vxy = vxy + gx * gy;
        }
        vxx.store(&mut sxx[c..]);
        vyy.store(&mut syy[c..]);
        vxy.store(&mut sxy[c..]);
    }
    for c in wide..n {
        let x = x0 + c;
        for y in rows.clone() {
            let (up, mid, dn) = (acc.row(y - 1), acc.row(y), acc.row(y + 1));
            let gx = mid[x + 1] - mid[x - 1];
            let gy = dn[x] - up[x];
            sxx[c] += gx * gx;
            syy[c] += gy * gy;
            sxy[c] += gx * gy;
        }
    }
}

/// Structure tensor of the window whose leftmost column is entry `j` of
/// the column sums: its last column plus the sum of the other eight.
#[inline(always)]
fn window_tensor(sums: &[Vec<f32>; 3], j: usize) -> (f32, f32, f32) {
    let side = 2 * HALF_WINDOW;
    let entry = |s: &[f32]| s[j + side] + s[j..j + side].iter().sum::<f32>();
    (entry(&sums[0]), entry(&sums[1]), entry(&sums[2]))
}

/// Hysteresis tracing of ridge pixels, row by row: the runs of pixels above
/// the weak threshold in each row of `roi` join the runs of the row above
/// that they touch, 8-connected, by union-find. A component holding a pixel
/// above the strong threshold is a ridge segment (Canny-style linking), and
/// each of its pixels gets the linking analysis. Returns the ridge pixels,
/// the segments and the sum of the linking scores in row-major order.
///
/// This is the content-dependent part of RDG: a frame full of vessels and
/// wires costs far more than a quiet frame, which is the "structural
/// fluctuation caused by the dependency of the processing time on the video
/// content" that the paper's EWMA + Markov decomposition targets.
///
/// Components never leave `roi`, so row bands trace side by side; the
/// linking analysis reads `acc` beyond the band. The counts are those of
/// the flood fill of [`trace_segments`] (components do not depend on visit
/// order) and so are the scores, bit for bit: a run's interior pixels share
/// one set of column sums, each summed in the order
/// [`structure_tensor_interior`] sums it for one pixel.
fn trace_runs(
    acc: &ImageF32,
    roi: Roi,
    threshold: f32,
    weak: f32,
    scratch: &mut RunScratch,
) -> (usize, usize, f32) {
    // Recompile the trace with AVX2 where available so the column sums'
    // vectors run on single 256-bit ops. Codegen only: the results are
    // identical either way.
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is checked at runtime above.
        return unsafe { trace_runs_avx2(acc, roi, threshold, weak, scratch) };
    }
    trace_runs_with(acc, roi, threshold, weak, scratch)
}

/// AVX2 clone of [`trace_runs_with`] (see the dispatch in [`trace_runs`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn trace_runs_avx2(
    acc: &ImageF32,
    roi: Roi,
    threshold: f32,
    weak: f32,
    scratch: &mut RunScratch,
) -> (usize, usize, f32) {
    trace_runs_with(acc, roi, threshold, weak, scratch)
}

#[inline(always)]
fn trace_runs_with(
    acc: &ImageF32,
    roi: Roi,
    threshold: f32,
    weak: f32,
    scratch: &mut RunScratch,
) -> (usize, usize, f32) {
    let weak = weak.min(threshold);
    let (w, h) = acc.dims();
    let RunScratch { runs, parent, sums } = scratch;
    runs.clear();
    parent.clear();
    let mut above = 0..0;
    for y in roi.y..roi.bottom() {
        let row = &acc.row(y)[roi.x..roi.right()];
        let first = runs.len();
        let mut x = 0;
        while let Some(x0) = next_above(row, x, weak) {
            x = x0 + row[x0..].iter().take_while(|&&v| v > weak).count();
            parent.push(runs.len() as u32);
            runs.push(Run {
                y: y as u32,
                x0: (roi.x + x0) as u32,
                x1: (roi.x + x - 1) as u32,
                strong: row[x0..x].iter().any(|&v| v > threshold),
            });
        }
        // Two runs on neighbouring rows touch when their column spans,
        // widened by one pixel, overlap. Both rows are sorted and a run's
        // successor starts past its end, so one cursor serves the row.
        let mut j = above.start;
        for i in first..runs.len() {
            let Run { x0, x1, .. } = runs[i];
            while j < above.end && runs[j].x1 + 1 < x0 {
                j += 1;
            }
            for k in j..above.end {
                if runs[k].x0 > x1 + 1 {
                    break;
                }
                union(parent, runs, i, k);
            }
        }
        above = first..runs.len();
    }

    let (mut pixels, mut segments, mut coherence) = (0, 0, 0.0f32);
    for i in 0..runs.len() {
        // a root precedes its component's other runs: its flag is final
        let root = find(parent, i);
        if !runs[root].strong {
            continue;
        }
        segments += usize::from(root == i);
        let Run { y, x0, x1, .. } = runs[i];
        let (y, x0, x1) = (y as usize, x0 as usize, x1 as usize + 1);
        pixels += x1 - x0;
        // the run's pixels whose linking analysis stays in bounds share
        // the column sums of their windows
        let (lo, hi) = if y >= MARGIN && y + MARGIN < h {
            (x0.max(MARGIN), x1.min(w.saturating_sub(MARGIN)))
        } else {
            (0, 0)
        };
        if lo < hi {
            column_sums(acc, y, lo - HALF_WINDOW, hi - lo + 2 * HALF_WINDOW, sums);
        }
        for x in x0..x1 {
            coherence += if (lo..hi).contains(&x) {
                linking_score(acc, x, y, window_tensor(sums, x - lo), true)
            } else {
                linking_score(acc, x, y, structure_tensor_clamped(acc, x, y), false)
            };
        }
    }
    (pixels, segments, coherence)
}

/// Index of the first pixel of `row` from `from` on that is above `weak`.
/// Most pixels are not, so eight at a time are tested with one vector
/// compare (the non-short-circuiting `|` is what lets it vectorize).
#[inline(always)]
fn next_above(row: &[f32], from: usize, weak: f32) -> Option<usize> {
    let (chunks, tail) = row[from..].as_chunks::<LANES>();
    let above = |v: &f32| *v > weak;
    let any_above = |c: &[f32; LANES]| c.iter().fold(false, |a, v| a | above(v));
    let hit = match chunks.iter().position(any_above) {
        Some(c) => c * LANES + chunks[c].iter().position(above)?,
        None => chunks.len() * LANES + tail.iter().position(above)?,
    };
    Some(from + hit)
}

/// Root of run `i`'s component, halving the path on the way.
fn find(parent: &mut [u32], mut i: usize) -> usize {
    while parent[i] as usize != i {
        parent[i] = parent[parent[i] as usize];
        i = parent[i] as usize;
    }
    i
}

/// Joins the components of runs `a` and `b` under the earlier root, which
/// takes over the other root's strong flag.
fn union(parent: &mut [u32], runs: &mut [Run], a: usize, b: usize) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    let (root, child) = (ra.min(rb), ra.max(rb));
    if root != child {
        parent[child] = root as u32;
        runs[root].strong |= runs[child].strong;
    }
}

/// The linking score of one pixel on its own: the oracle's form of what
/// [`trace_runs`] computes run by run.
fn local_coherence(acc: &ImageF32, cx: usize, cy: usize) -> f32 {
    let (w, h) = acc.dims();
    let interior = cx >= MARGIN && cy >= MARGIN && cx + MARGIN < w && cy + MARGIN < h;
    let tensor = if interior {
        structure_tensor_interior(acc, cx, cy)
    } else {
        structure_tensor_clamped(acc, cx, cy)
    };
    linking_score(acc, cx, cy, tensor, interior)
}

/// Structure tensor of an interior window, for one pixel: each column's
/// ordered sum from `+0.0` over the window rows, top first, then the last
/// column plus the sum of the others.
fn structure_tensor_interior(acc: &ImageF32, cx: usize, cy: usize) -> (f32, f32, f32) {
    let mut cols = [[0.0f32; 3]; 2 * HALF_WINDOW + 1];
    for (x, col) in (cx - HALF_WINDOW..).zip(&mut cols) {
        for y in cy - HALF_WINDOW..=cy + HALF_WINDOW {
            let gx = acc.get(x + 1, y) - acc.get(x - 1, y);
            let gy = acc.get(x, y + 1) - acc.get(x, y - 1);
            col[0] += gx * gx;
            col[1] += gy * gy;
            col[2] += gx * gy;
        }
    }
    let (last, rest) = cols.split_last().expect("the window has columns");
    let entry = |k: usize| last[k] + rest.iter().map(|c| c[k]).sum::<f32>();
    (entry(0), entry(1), entry(2))
}

/// The oracle of [`trace_runs`], by flood fill: every pixel above the
/// strong threshold that no fill has reached seeds one through the
/// 8-connected pixels above the weak threshold; then every filled pixel,
/// in row-major order, adds its [`local_coherence`]. Same return values.
///
/// The fill never leaves `roi`; `visited` holds the mask's full-width rows
/// `roi.y..roi.bottom()`.
fn trace_segments(
    acc: &ImageF32,
    roi: Roi,
    threshold: f32,
    weak: f32,
    visited: &mut [bool],
) -> (usize, usize, f32) {
    let weak = weak.min(threshold);
    let w = acc.width();
    assert_eq!(visited.len(), roi.height * w);
    visited.fill(false);
    let at = |x: usize, y: usize| (y - roi.y) * w + x;
    let mut ridge_pixels = 0usize;
    let mut segments = 0usize;
    let mut stack = Vec::new();
    for y in roi.y..roi.bottom() {
        for x in roi.x..roi.right() {
            if visited[at(x, y)] || acc.get(x, y) <= threshold {
                continue;
            }
            segments += 1;
            stack.push((x, y));
            visited[at(x, y)] = true;
            while let Some((cx, cy)) = stack.pop() {
                ridge_pixels += 1;
                // 8-connected neighbourhood, clipped to the ROI
                for dy in -1i64..=1 {
                    for dx in -1i64..=1 {
                        if dx == 0 && dy == 0 {
                            continue;
                        }
                        let nx = cx as i64 + dx;
                        let ny = cy as i64 + dy;
                        if nx < roi.x as i64
                            || ny < roi.y as i64
                            || nx >= roi.right() as i64
                            || ny >= roi.bottom() as i64
                        {
                            continue;
                        }
                        let (nx, ny) = (nx as usize, ny as usize);
                        if !visited[at(nx, ny)] && acc.get(nx, ny) > weak {
                            visited[at(nx, ny)] = true;
                            stack.push((nx, ny));
                        }
                    }
                }
            }
        }
    }
    let mut coherence = 0.0f32;
    for y in roi.y..roi.bottom() {
        for x in roi.x..roi.right() {
            if visited[at(x, y)] {
                coherence += local_coherence(acc, x, y);
            }
        }
    }
    (ridge_pixels, segments, coherence)
}

/// Cheap structure probe driving the "RDG DETECTION" switch of Fig. 2.
///
/// Measures mean absolute horizontal+vertical gradient on a decimated grid;
/// a frame with dominant curvilinear structures scores high and enables the
/// full ridge-detection stage, a quiet frame skips it.
pub fn quick_structure_probe(src: &ImageU16, step: usize) -> f64 {
    assert!(step > 0, "probe step must be positive");
    let (w, h) = src.dims();
    if w < 2 || h < 2 {
        return 0.0;
    }
    let mut total = 0.0f64;
    let mut count = 0usize;
    let mut y = 0;
    while y + 1 < h {
        let row = src.row(y);
        let next = src.row(y + 1);
        let mut x = 0;
        while x + 1 < w {
            let gx = (row[x + 1] as f64 - row[x] as f64).abs();
            let gy = (next[x] as f64 - row[x] as f64).abs();
            total += gx + gy;
            count += 1;
            x += step;
        }
        y += step;
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    /// Synthesizes a frame with a dark diagonal wire and a dark blob pair.
    fn test_frame(w: usize, h: usize) -> ImageU16 {
        Image::from_fn(w, h, |x, y| {
            let mut v = 2000.0f32;
            // diagonal wire
            let d = (x as f32 - y as f32).abs() / 1.5;
            v -= 900.0 * (-d * d / 2.0).exp();
            // two blobs
            for &(cx, cy) in &[
                (w as f32 * 0.25, h as f32 * 0.75),
                (w as f32 * 0.75, h as f32 * 0.25),
            ] {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                v -= 1100.0 * (-(dx * dx + dy * dy) / 8.0).exp();
            }
            v.max(0.0) as u16
        })
    }

    #[test]
    fn rdg_detects_and_suppresses_the_wire() {
        let src = test_frame(64, 64);
        let cfg = RdgConfig::default();
        let mut bufs = RdgBuffers::new(64, 64);
        let out = rdg_full(&src, &cfg, &mut bufs);
        assert!(out.ridge_pixels > 20, "ridge pixels {}", out.ridge_pixels);
        assert!(out.segments >= 1);
        // the wire center must be brightened (suppressed)
        let before = src.get(32, 32);
        let after = out.filtered.get(32, 32);
        assert!(
            after > before,
            "wire not suppressed: {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn rdg_leaves_blobs_mostly_intact() {
        let src = test_frame(64, 64);
        let out = rdg_full(&src, &RdgConfig::default(), &mut RdgBuffers::new(64, 64));
        let (bx, by) = (16, 48);
        let before = src.get(bx, by) as i64;
        let after = out.filtered.get(bx, by) as i64;
        // blob brightening must stay small relative to its depth (~1100)
        assert!(
            (after - before).abs() < 550,
            "blob altered too much: {} -> {}",
            before,
            after
        );
    }

    #[test]
    fn rdg_roi_leaves_outside_untouched() {
        let src = test_frame(64, 64);
        let roi = Roi::new(16, 16, 32, 32);
        let out = rdg_roi(
            &src,
            roi,
            &RdgConfig::default(),
            &mut RdgBuffers::new(64, 64),
        );
        assert_eq!(out.filtered.get(0, 0), src.get(0, 0));
        assert_eq!(out.ridgeness.get(0, 0), 0.0);
        assert_eq!(out.filtered.get(63, 63), src.get(63, 63));
    }

    #[test]
    fn quiet_frame_has_few_ridge_pixels() {
        let src: ImageU16 = Image::filled(64, 64, 2000);
        let out = rdg_full(&src, &RdgConfig::default(), &mut RdgBuffers::new(64, 64));
        assert_eq!(out.ridge_pixels, 0);
        assert_eq!(out.segments, 0);
    }

    #[test]
    fn structure_probe_separates_busy_from_quiet() {
        let busy = test_frame(64, 64);
        let quiet: ImageU16 = Image::filled(64, 64, 2000);
        let pb = quick_structure_probe(&busy, 4);
        let pq = quick_structure_probe(&quiet, 4);
        assert!(pb > 10.0 * (pq + 1.0), "busy {} quiet {}", pb, pq);
    }

    /// Three parallel diagonal wires: plenty of segments crossing every
    /// band boundary.
    fn busy_frame(w: usize, h: usize) -> ImageU16 {
        Image::from_fn(w, h, |x, y| {
            let mut v = 2000.0f32;
            for k in 0..3 {
                let d = (x as f32 - y as f32 + (k * 20) as f32).abs() / 1.5;
                v -= 700.0 * (-d * d / 2.0).exp();
            }
            v as u16
        })
    }

    fn striped(
        pool: &StripePool,
        src: &ImageU16,
        roi: Roi,
        stripes: usize,
        bufs: &mut RdgBuffers,
    ) -> RdgOutput {
        let cfg = RdgConfig::default();
        rdg_banded(pool, src, roi, &cfg, stripes, StripeFault::default(), bufs).unwrap()
    }

    #[test]
    fn striped_pixels_match_serial_and_counters_sum_the_band_traces() {
        let src = busy_frame(96, 96);
        let cfg = RdgConfig::default();
        let pool = StripePool::new(4);
        let mut bufs = RdgBuffers::new(96, 96);
        for roi in [src.full_roi(), Roi::new(9, 14, 70, 61)] {
            let serial = rdg_roi(&src, roi, &cfg, &mut RdgBuffers::new(96, 96));
            assert!(serial.ridge_pixels > 0 && serial.segments > 0);
            // the thresholds every band has to use: those of the whole ROI
            let (mean, std) = response_stats(&serial.ridgeness, roi);
            let weak = (mean + cfg.weak_factor * std).max(cfg.response_floor);
            let strong = (mean + cfg.threshold_factor * std).max(weak);
            for stripes in [1usize, 2, 4, 7] {
                let out = striped(&pool, &src, roi, stripes, &mut bufs);
                assert_eq!(out.filtered, serial.filtered, "{stripes} stripes");
                assert_eq!(out.ridgeness, serial.ridgeness, "{stripes} stripes");
                // the oracle's flood fill of each band over the serial response
                let (mut pixels, mut segments) = (0, 0);
                for band in roi.stripes(stripes) {
                    let mut visited = vec![false; band.height * 96];
                    let (p, s, _) =
                        trace_segments(&serial.ridgeness, band, strong, weak, &mut visited);
                    pixels += p;
                    segments += s;
                }
                assert_eq!(
                    (out.ridge_pixels, out.segments),
                    (pixels, segments),
                    "{stripes} stripes"
                );
                if stripes == 1 {
                    assert_eq!(
                        (out.ridge_pixels, out.segments),
                        (serial.ridge_pixels, serial.segments)
                    );
                }
                bufs.recycle(out);
            }
        }
    }

    #[test]
    fn run_trace_matches_the_flood_fill_oracle_bit_for_bit() {
        // Responses drawn from the two thresholds themselves, values a hair
        // either side of them, zero and a spread above: plateaus exactly at
        // `weak` and at `strong` decide which comparison the trace makes,
        // and sparse above-weak pixels give diagonal-only contacts.
        use rand::{Rng, SeedableRng};
        let (w, h) = (44, 37);
        let (weak, strong) = (10.0f32, 20.0f32);
        let levels = [
            0.0,
            weak,
            weak.next_down(),
            weak.next_up(),
            strong,
            strong.next_down(),
            strong.next_up(),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(28);
        let check = |acc: &ImageF32, roi: Roi| {
            let mut scratch = RunScratch::default();
            let mut visited = vec![false; roi.height * w];
            let runs = trace_runs(acc, roi, strong, weak, &mut scratch);
            let fill = trace_segments(acc, roi, strong, weak, &mut visited);
            assert_eq!((runs.0, runs.1), (fill.0, fill.1), "{roi}");
            assert_eq!(runs.2.to_bits(), fill.2.to_bits(), "{roi}");
            runs.0
        };
        let mut traced = 0;
        for density in [0.15, 0.4, 0.7] {
            let acc = Image::from_fn(w, h, |_, _| {
                if rng.gen_bool(density) {
                    if rng.gen_bool(0.6) {
                        levels[rng.gen_range(1..levels.len())]
                    } else {
                        rng.gen_range(weak..3.0 * strong)
                    }
                } else {
                    levels[rng.gen_range(0..3)]
                }
            });
            // whole frame and ROIs against every border, in 1, 2, 4 and 7
            // bands: every band reaches into the 8-px clamped margin
            for roi in [
                acc.full_roi(),
                Roi::new(0, 0, 21, 30),
                Roi::new(5, 3, 39, 34),
                Roi::new(23, 9, 21, 28),
            ] {
                for stripes in [1, 2, 4, 7] {
                    for band in roi.stripes(stripes) {
                        traced += check(&acc, band);
                    }
                }
            }
            // narrow ROIs, 1–20 wide and 1–3 high, from the corner inwards
            for width in 1..=20 {
                for height in 1..=3 {
                    for (x, y) in [(0, 0), (3, 7), (w - width, 12), (11, h - height)] {
                        traced += check(&acc, Roi::new(x, y, width, height));
                    }
                }
            }
        }
        assert!(traced > 10_000, "only {traced} pixels traced");
    }

    #[test]
    fn faulted_dispatch_fails_cleanly_and_a_retry_is_bit_identical() {
        let src = test_frame(96, 96);
        let cfg = RdgConfig::default();
        let pool = StripePool::new(4);
        let roi = src.full_roi();
        let reference = striped(&pool, &src, roi, 4, &mut RdgBuffers::new(96, 96));
        let mut bufs = RdgBuffers::new(96, 96);
        let panic_jobs = |n| StripeFault {
            panic_jobs: n,
            channel_error: false,
        };

        // armed fault: the attempt fails cleanly
        let err = rdg_banded(&pool, &src, roi, &cfg, 4, panic_jobs(1), &mut bufs).unwrap_err();
        assert!(matches!(err, PoolError::JobPanicked(_)), "{err:?}");
        assert_eq!(pool.live_threads(), 4);

        // retry without the fault: output identical to a never-faulted run
        let out = striped(&pool, &src, roi, 4, &mut bufs);
        assert_eq!(out.filtered, reference.filtered);
        assert_eq!(out.ridgeness, reference.ridgeness);
        assert_eq!(out.ridge_pixels, reference.ridge_pixels);
        bufs.recycle(out);

        // a failed attempt takes no output image out of the warm pool
        let warm = bufs.allocations();
        assert!(rdg_banded(&pool, &src, roi, &cfg, 4, panic_jobs(2), &mut bufs).is_err());
        let out = striped(&pool, &src, roi, 4, &mut bufs);
        assert_eq!(
            bufs.allocations(),
            warm,
            "failed attempt cost an allocation"
        );
        assert_eq!(out.filtered, reference.filtered);
    }

    #[test]
    fn channel_error_is_transient() {
        let src = test_frame(64, 64);
        let cfg = RdgConfig::default();
        let pool = StripePool::new(2);
        let mut bufs = RdgBuffers::new(64, 64);
        let fault = StripeFault {
            panic_jobs: 0,
            channel_error: true,
        };
        assert_eq!(
            rdg_banded(&pool, &src, src.full_roi(), &cfg, 2, fault, &mut bufs).unwrap_err(),
            PoolError::Disconnected
        );
        // the next dispatch succeeds — the error was transient by design
        striped(&pool, &src, src.full_roi(), 2, &mut bufs);
    }

    #[test]
    fn a_lone_band_has_no_dispatch_to_fault() {
        // one stripe (asked for, or all a one-row ROI yields) runs inline:
        // an armed fault has nothing to fail and stays unconsumed
        let src = test_frame(64, 64);
        let cfg = RdgConfig::default();
        let pool = StripePool::new(2);
        let fault = StripeFault {
            panic_jobs: 1,
            channel_error: true,
        };
        for (roi, stripes) in [(src.full_roi(), 1), (Roi::new(0, 30, 64, 1), 4)] {
            let serial = rdg_roi(&src, roi, &cfg, &mut RdgBuffers::new(64, 64));
            let mut bufs = RdgBuffers::new(64, 64);
            let out = rdg_banded(&pool, &src, roi, &cfg, stripes, fault, &mut bufs).unwrap();
            assert_eq!(out.filtered, serial.filtered);
            assert_eq!(out.ridgeness, serial.ridgeness);
            assert_eq!(bufs.times().band_ms.len(), 1);
        }
    }

    #[test]
    fn striped_rdg_is_deterministic_across_frames() {
        // Reusing one RdgBuffers for consecutive striped frames must not
        // leak state between frames: every run on the same input produces
        // identical outputs, and the warm path performs no new allocations.
        let src = test_frame(96, 96);
        let pool = StripePool::new(3);
        let mut bufs = RdgBuffers::new(96, 96);
        // `first` is held for comparison (not recycled), so frame 2 must
        // allocate one more output pair; from frame 3 on the pool is warm
        // and the allocation count stays flat.
        let first = striped(&pool, &src, src.full_roi(), 3, &mut bufs);
        let mut warm_allocs = None;
        for frame in 1..4 {
            let out = striped(&pool, &src, src.full_roi(), 3, &mut bufs);
            assert_eq!(out.ridge_pixels, first.ridge_pixels, "frame {frame}");
            assert_eq!(out.segments, first.segments, "frame {frame}");
            assert_eq!(out.filtered, first.filtered, "frame {frame}");
            assert_eq!(out.ridgeness, first.ridgeness, "frame {frame}");
            bufs.recycle(out);
            match warm_allocs {
                None => warm_allocs = Some(bufs.allocations()),
                Some(warm) => assert_eq!(
                    bufs.allocations(),
                    warm,
                    "steady-state frame {frame} must not allocate"
                ),
            }
        }
    }

    #[test]
    fn warm_buffers_do_not_grow_when_the_roi_changes_size() {
        // One buffer set serves every ROI geometry and stripe count: once
        // it has seen the widest striping, neither the output pool nor any
        // scratch grows again, whatever the ROI does from frame to frame.
        let src = busy_frame(96, 96);
        let pool = StripePool::new(2);
        let mut bufs = RdgBuffers::new(96, 96);
        let out = striped(&pool, &src, src.full_roi(), 4, &mut bufs);
        bufs.recycle(out);
        let (allocations, bytes) = (bufs.allocations(), bufs.byte_size());
        let rois = [
            Roi::new(8, 8, 60, 70),
            Roi::new(20, 0, 76, 33),
            src.full_roi(),
            Roi::new(0, 40, 96, 5),
        ];
        for (frame, &roi) in rois.iter().cycle().take(8).enumerate() {
            for stripes in [2usize, 4] {
                let out = striped(&pool, &src, roi, stripes, &mut bufs);
                bufs.recycle(out);
                assert_eq!(bufs.allocations(), allocations, "frame {frame}");
                assert_eq!(bufs.byte_size(), bytes, "frame {frame}");
            }
        }
    }

    #[test]
    fn recycled_ridgeness_is_zero_outside_every_new_roi() {
        // The pooled image is cleared only where its last ROI reaches and
        // the new one does not: whatever the ROI did between two calls —
        // moved, shrank, grew, jumped away, went full frame and back — the
        // output equals one made on fresh buffers.
        let src = busy_frame(96, 96);
        let cfg = RdgConfig::default();
        let mut bufs = RdgBuffers::new(96, 96);
        let rois = [
            Roi::new(10, 12, 40, 36),
            Roi::new(18, 20, 40, 36),
            Roi::new(24, 26, 12, 10),
            Roi::new(4, 2, 80, 70),
            Roi::new(60, 64, 30, 28),
            Roi::new(0, 0, 20, 20),
            src.full_roi(),
            Roi::new(40, 8, 9, 80),
            Roi::new(0, 50, 96, 1),
        ];
        for roi in rois {
            let out = rdg_roi(&src, roi, &cfg, &mut bufs);
            let fresh = rdg_roi(&src, roi, &cfg, &mut RdgBuffers::new(96, 96));
            assert_eq!(out.ridgeness, fresh.ridgeness, "{roi}");
            assert_eq!(out.filtered, fresh.filtered, "{roi}");
            bufs.recycle(out);
        }
        assert_eq!(bufs.allocations(), 2);
    }

    #[test]
    fn response_window_equals_the_ridgeness_of_a_whole_call() {
        // What GW EXT reads: inside the window, the accumulator after a
        // response sweep is the `ridgeness` of an RDG call over `roi` —
        // response inside `roi`, zero outside — whether it resumes the
        // accumulator of an RDG call on the same frame or starts over.
        let src = busy_frame(96, 96);
        let coarse = RdgConfig {
            fine_enabled: false,
            ..RdgConfig::default()
        };
        let full = RdgConfig::default();
        let pool = StripePool::new(2);
        let roi = Roi::new(20, 24, 40, 30);
        let window = Roi::new(30, 10, 50, 30);
        let whole = rdg_roi(&src, roi, &full, &mut RdgBuffers::new(96, 96));
        for (resume, stripes) in [(true, 1), (true, 2), (false, 2)] {
            let mut bufs = RdgBuffers::new(96, 96);
            let out = rdg_roi(&src, Roi::new(8, 8, 80, 80), &coarse, &mut bufs);
            bufs.recycle(out);
            let fault = StripeFault::default();
            ridge_response_banded(
                &pool, &src, window, roi, &full, resume, stripes, fault, &mut bufs,
            )
            .unwrap();
            // resuming folds the one scale RDG left out, one job per band
            let bands = if stripes == 1 { 1 } else { 2 };
            assert_eq!(bufs.times().band_ms.len(), bands);
            for y in window.y..window.bottom() {
                for x in window.x..window.right() {
                    assert_eq!(
                        bufs.response().get(x, y).to_bits(),
                        whole.ridgeness.get(x, y).to_bits(),
                        "resume {resume}, {stripes} stripes, ({x}, {y})"
                    );
                }
            }
            // a second sweep finds no RDG accumulator to resume
            ridge_response_banded(&pool, &src, window, roi, &full, true, 1, fault, &mut bufs)
                .unwrap();
            assert_eq!(bufs.response().get(35, 30), whole.ridgeness.get(35, 30));
        }
        // every scale already there: nothing to sweep, no band dispatched
        let mut bufs = RdgBuffers::new(96, 96);
        let out = rdg_roi(&src, Roi::new(8, 8, 80, 80), &full, &mut bufs);
        bufs.recycle(out);
        let fault = StripeFault {
            panic_jobs: 1,
            channel_error: true,
        };
        ridge_response_banded(&pool, &src, window, roi, &full, true, 2, fault, &mut bufs).unwrap();
        assert!(bufs.times().band_ms.is_empty());
        assert_eq!(bufs.response().get(35, 30), whole.ridgeness.get(35, 30));
        assert_eq!(bufs.response().get(75, 12), 0.0);
    }

    #[test]
    fn the_breakdown_accounts_for_the_wall_time_of_a_striped_call() {
        // On a pool without workers the bands run one after another, so a
        // call's wall time is its serial sections plus all its bands plus
        // whatever the breakdown fails to name. Host noise can only widen
        // that last share, so the best of a few calls bounds it.
        let src = busy_frame(256, 256);
        let pool = StripePool::new(0);
        let mut bufs = RdgBuffers::new(256, 256);
        let mut best = 0.0f64;
        for _ in 0..9 {
            let t0 = Instant::now();
            let out = striped(&pool, &src, src.full_roi(), 4, &mut bufs);
            let wall_ms = ms_since(t0);
            bufs.recycle(out);
            let times = bufs.times();
            assert_eq!(times.band_ms.len(), 4);
            assert!(times.serial_ms > 0.0 && times.band_ms.iter().all(|&ms| ms > 0.0));
            let named_ms = times.serial_ms + times.band_ms.iter().sum::<f64>();
            best = best.max(named_ms / wall_ms);
        }
        assert!(
            best >= 0.9,
            "breakdown covers only {best:.3} of the wall time"
        );
    }

    #[test]
    fn warm_buffers_do_not_allocate_per_frame() {
        // The output pool must make the steady-state RDG path allocation
        // free: after the first frame warms the pool, the image-allocation
        // count stays constant no matter how many frames run.
        let src = test_frame(64, 64);
        let cfg = RdgConfig::default();
        let mut bufs = RdgBuffers::new(64, 64);
        let first = rdg_full(&src, &cfg, &mut bufs);
        bufs.recycle(first);
        let warm = bufs.allocations();
        assert_eq!(
            warm, 2,
            "first frame allocates exactly filtered + ridgeness"
        );
        for _ in 0..3 {
            let out = rdg_full(&src, &cfg, &mut bufs);
            bufs.recycle(out);
        }
        assert_eq!(
            bufs.allocations(),
            warm,
            "steady-state frames must not allocate"
        );
    }

    #[test]
    fn buffer_accounting_scales_with_geometry() {
        let small = RdgBuffers::new(64, 64).byte_size();
        let large = RdgBuffers::new(128, 128).byte_size();
        assert_eq!(large, small * 4);
    }

    #[test]
    fn more_structure_means_more_traced_pixels() {
        // content-dependence of the stage-C cost proxy
        let quiet = Image::from_fn(64, 64, |x, y| {
            let d = (x as f32 - y as f32).abs() / 1.5;
            (2000.0 - 400.0 * (-d * d / 2.0).exp()) as u16
        });
        let busy = Image::from_fn(64, 64, |x, y| {
            let mut v = 2000.0f32;
            for k in 0..4 {
                let off = (k * 16) as f32;
                let d = (x as f32 - y as f32 + off).abs() / 1.5;
                v -= 800.0 * (-d * d / 2.0).exp();
            }
            v as u16
        });
        let cfg = RdgConfig::default();
        let q = rdg_full(&quiet, &cfg, &mut RdgBuffers::new(64, 64));
        let b = rdg_full(&busy, &cfg, &mut RdgBuffers::new(64, 64));
        assert!(
            b.ridge_pixels > q.ridge_pixels,
            "busy {} quiet {}",
            b.ridge_pixels,
            q.ridge_pixels
        );
    }
}
