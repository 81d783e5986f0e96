//! Fused, tiled, SIMD-vectorized multi-scale Hessian sweep: the one engine
//! behind both detectors, ridge (RDG) and blob (MKX EXT).
//!
//! The unfused engine materializes, per scale, three row-filtered
//! full-frame intermediates and three full-frame Hessian components —
//! six extra frame-sized reads/writes (~12 MB of traffic per scale at
//! 1024², see `memory_model`). This module computes the same per-pixel
//! values in **one pass over the source**:
//!
//! 1. a *multi-kernel row sweep*: each source row is read once and the
//!    three row-filtered signals (`src*G`, `src*G'`, `src*G''`) are
//!    produced together, tap-ascending, into a ring buffer of
//!    `2·radius + 1` rows per signal;
//! 2. a *tiled column + response stage*: for each output row, the three
//!    column convolutions are evaluated straight out of the ring in
//!    8-lane SIMD chunks ([`crate::simd::F32x8`]), and the
//!    eigenvalue/response math plus the max-over-scales accumulation run
//!    on the same registers — `Ixx`/`Iyy`/`Ixy` never exist in memory at
//!    all, let alone as full frames.
//!
//! The response is the sweep's one type parameter (`Response`):
//! `RidgeMax` folds [`crate::hessian::ridge_response`] into a running
//! maximum, `BlobMax` folds [`crate::hessian::blob_response`] and
//! records the winning scale per pixel. Row stage, column stage and sweep
//! loop are shared.
//!
//! **Bit-exactness.** Every per-pixel accumulation keeps the reference
//! op order (`0 + t₀·s₀ + t₁·s₁ + …`, taps ascending, clamped-replicate
//! borders) and each response keeps the exact expression order of its
//! scalar form, so the fused output is bit-identical to `convolve_rows` →
//! `convolve_cols` → a scalar response/accumulate pass (property-tested
//! in `tests/fused_rdg_identity.rs`).

use crate::image::{ImageF32, Roi};
use crate::kernel::Kernel1D;
use crate::simd::{F32x8, SimdF32};

/// Reusable working memory of the fused sweep: three row-filtered ring
/// buffers. Grows on first use to the largest scale's ring and never
/// shrinks, so steady-state frames allocate nothing. This — not three
/// full frames — is the "intermediate" storage the fused path adds on
/// top of the detectors' `src`/response planes (accounted by
/// `memory_model::rdg_tile_bytes`).
#[derive(Debug, Default)]
pub struct FusedScratch {
    /// Ring of `src * G` rows (feeds `Iyy`).
    ring_g: Vec<f32>,
    /// Ring of `src * G'` rows (feeds `Ixy`).
    ring_d1: Vec<f32>,
    /// Ring of `src * G''` rows (feeds `Ixx`).
    ring_d2: Vec<f32>,
}

impl FusedScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total scratch bytes (Table-1 intermediate accounting).
    pub fn byte_size(&self) -> usize {
        (self.ring_g.len() + self.ring_d1.len() + self.ring_d2.len()) * std::mem::size_of::<f32>()
    }

    /// Grows (never shrinks) the rings to `ring_rows` rows of `width`.
    fn ensure(&mut self, width: usize, ring_rows: usize) {
        let need = width * ring_rows;
        if self.ring_g.len() < need {
            self.ring_g.resize(need, 0.0);
            self.ring_d1.resize(need, 0.0);
            self.ring_d2.resize(need, 0.0);
        }
    }
}

/// Upper bound on supported kernel length (`2·radius + 1`); radius 64
/// corresponds to `sigma > 21`, far beyond any configured scale.
const MAX_TAPS: usize = 129;

/// Accumulates `max(acc, ridge_response(H_sigma))` over `roi` in a single
/// fused pass, bit-identical to the unfused
/// `hessian_at_scale` + `accumulate_max_response` sequence.
///
/// `acc` holds the accumulator's full-width rows `roi.y..roi.bottom()`
/// (one entry of [`crate::image::Image::row_bands`]; the whole buffer for
/// a full-frame ROI), so disjoint row bands of one accumulator can be
/// swept concurrently. The source is read `radius` rows beyond the band on
/// either side, which makes every band's rows bit-identical to the same
/// rows of a whole-ROI sweep.
///
/// `g`/`d1`/`d2` must share one radius (they do for one sigma, by
/// construction of [`Kernel1D::gaussian`] and its derivatives).
pub fn fused_ridge_scale(
    src: &ImageF32,
    acc: &mut [f32],
    scratch: &mut FusedScratch,
    g: &Kernel1D,
    d1: &Kernel1D,
    d2: &Kernel1D,
    roi: Roi,
) {
    fused_scale::<_, false>(src, RidgeMax { acc }, scratch, g, d1, d2, roi);
}

/// First-scale variant: *overwrites* `acc` over `roi` with the scale's
/// response, bit-identical to zeroing `acc` and then calling
/// [`fused_ridge_scale`] — but without the zeroing pass or the
/// accumulator read (the response is ≥ +0.0 by construction, so the
/// `max(acc, resp)` select against a zeroed accumulator is `resp`).
pub fn fused_ridge_scale_init(
    src: &ImageF32,
    acc: &mut [f32],
    scratch: &mut FusedScratch,
    g: &Kernel1D,
    d1: &Kernel1D,
    d2: &Kernel1D,
    roi: Roi,
) {
    fused_scale::<_, true>(src, RidgeMax { acc }, scratch, g, d1, d2, roi);
}

/// One scale of the fused sweep over `roi`, folding every pixel's Hessian
/// into `out`. With `INIT` the scale *overwrites* `out` over `roi` —
/// bit-identical to resetting the planes (response `+0.0`) and folding,
/// without the reset pass or the read; the first scale of a multi-scale
/// max runs this way, the others with `INIT = false`.
///
/// `out` holds the full-width rows `roi.y..roi.bottom()` of its planes;
/// what the ridge entry points above say about row bands, the source halo
/// and the kernel triple holds for every response.
pub(crate) fn fused_scale<R: Response, const INIT: bool>(
    src: &ImageF32,
    out: R,
    scratch: &mut FusedScratch,
    g: &Kernel1D,
    d1: &Kernel1D,
    d2: &Kernel1D,
    roi: Roi,
) {
    let roi = roi.clamp_to(src.width(), src.height());
    if roi.is_empty() {
        return;
    }
    assert_eq!(
        out.len(),
        roi.height * src.width(),
        "the output must hold the ROI's full-width rows"
    );
    let r = g.radius();
    assert_eq!(r, d1.radius(), "kernel radii must match");
    assert_eq!(r, d2.radius(), "kernel radii must match");
    let (w, h) = src.dims();
    let ring_rows = 2 * r + 1;
    assert!(ring_rows <= MAX_TAPS, "kernel too long for the fused sweep");
    scratch.ensure(w, ring_rows);
    let FusedScratch {
        ring_g,
        ring_d1,
        ring_d2,
    } = scratch;
    let sweep = Sweep {
        src,
        out,
        ring_g,
        ring_d1,
        ring_d2,
        tg: g.taps(),
        t1: d1.taps(),
        t2: d2.taps(),
        r,
        ring_rows,
        w,
        h,
        roi,
    };
    // The sweep body is written in explicit-width / lane-elementwise
    // form, generic over the vector width; compiling extra copies with
    // AVX-512 / AVX2 enabled lets the inner loops use 16-/8-lane
    // registers on machines that have them. Every copy executes
    // identical per-lane IEEE operations (Rust performs no FMA
    // contraction and no reassociation), so neither the dispatch choice
    // nor the lane width can change a single output bit.
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the AVX-512F requirement is checked at runtime above.
            unsafe { sweep_avx512::<R, INIT>(sweep) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            unsafe { sweep_avx2::<R, INIT>(sweep) };
            return;
        }
    }
    // NEON is baseline on aarch64 — no runtime detection. 4-lane
    // registers with an 8-chunk unroll keep 24 accumulators live in the
    // 32-register NEON file, mirroring the AVX-512 shape.
    #[cfg(target_arch = "aarch64")]
    {
        sweep.run::<crate::simd::NeonF32x4, 8, INIT>();
        return;
    }
    #[cfg(not(target_arch = "aarch64"))]
    sweep.run::<F32x8, 4, INIT>();
}

/// What the sweep does with a pixel's Hessian: the response measure and
/// how it folds into the caller's planes. The column stage hands it the
/// three component sums while they are still in registers.
pub(crate) trait Response {
    /// Entries per output plane: the band's full-width rows.
    fn len(&self) -> usize;
    /// Folds one lane chunk of Hessian sums into the planes at
    /// `i..i + V::WIDTH`.
    fn fold<V: SimdF32, const INIT: bool>(&mut self, i: usize, xx: V, yy: V, xy: V);
    /// [`Response::fold`] for the one pixel at `i` (row tails), same bits.
    fn fold_one<const INIT: bool>(&mut self, i: usize, xx: f32, yy: f32, xy: f32);
}

/// [`crate::hessian::eigenvalues`] per lane, `(hi, lo)`, in its exact
/// expression order: `(diff²·0.25 + ixy²).sqrt()` around `tr·0.5`.
#[inline(always)]
fn eigenvalues<V: SimdF32>(xx: V, yy: V, xy: V) -> (V, V) {
    let tr_half = (xx + yy) * V::splat(0.5);
    let diff = xx - yy;
    let disc = (diff * diff * V::splat(0.25) + xy * xy).sqrt();
    (tr_half + disc, tr_half - disc)
}

/// Running maximum of [`crate::hessian::ridge_response`] over scales.
struct RidgeMax<'a> {
    acc: &'a mut [f32],
}

impl Response for RidgeMax<'_> {
    fn len(&self) -> usize {
        self.acc.len()
    }

    /// The exact expression order of `ridge_response`, with a branch-free
    /// select for the `hi ≤ 0` early-out, then an exact `resp > acc` select.
    #[inline(always)]
    fn fold<V: SimdF32, const INIT: bool>(&mut self, i: usize, xx: V, yy: V, xy: V) {
        let one = V::splat(1.0);
        let zero = V::splat(0.0);
        let (hi, lo) = eigenvalues(xx, yy, xy);
        let aniso = one - (lo.abs() / hi).min(one);
        let resp = V::select_gt(hi, zero, hi * aniso, zero);
        let acc = &mut self.acc[i..i + V::WIDTH];
        if INIT {
            // `resp` is +0.0 or positive in every lane, so `max(resp, 0.0)`
            // against a freshly zeroed accumulator is `resp` itself.
            resp.store(acc);
        } else {
            let cur = V::load(acc);
            V::select_gt(resp, cur, resp, cur).store(acc);
        }
    }

    #[inline(always)]
    fn fold_one<const INIT: bool>(&mut self, i: usize, xx: f32, yy: f32, xy: f32) {
        let r = crate::hessian::ridge_response(xx, yy, xy);
        let a = &mut self.acc[i];
        if INIT {
            *a = if r > 0.0 { r } else { 0.0 };
        } else if r > *a {
            *a = r;
        }
    }
}

/// Running maximum of [`crate::hessian::blob_response`] over scales, with
/// the scale that won each pixel. A scale wins on a strict `r > acc`; with
/// `INIT` every pixel's scale is `sigma`, as if the planes had been reset
/// to response `+0.0` at the first scale.
pub(crate) struct BlobMax<'a> {
    pub(crate) acc: &'a mut [f32],
    /// Per-pixel winning scale, laid out like `acc`.
    pub(crate) scale: &'a mut [f32],
    /// The scale being swept.
    pub(crate) sigma: f32,
}

impl Response for BlobMax<'_> {
    fn len(&self) -> usize {
        assert_eq!(
            self.acc.len(),
            self.scale.len(),
            "response and scale rows must share one layout"
        );
        self.acc.len()
    }

    /// The expression order of `blob_response` — `(hi + lo)·(lo / hi)` —
    /// with its branches as one select: `lo > 0` implies `hi > 0`
    /// (`hi ≥ lo`), so the isotropy gate needs no select of its own, and
    /// every other lane gets the scalar early-out's `+0.0` (`lo == -0.0`
    /// included).
    #[inline(always)]
    fn fold<V: SimdF32, const INIT: bool>(&mut self, i: usize, xx: V, yy: V, xy: V) {
        let zero = V::splat(0.0);
        let (hi, lo) = eigenvalues(xx, yy, xy);
        let r = V::select_gt(lo, zero, (hi + lo) * (lo / hi), zero);
        let acc = &mut self.acc[i..i + V::WIDTH];
        let scale = &mut self.scale[i..i + V::WIDTH];
        let sigma = V::splat(self.sigma);
        if INIT {
            // A NaN response (overflowed sums) loses the strict `r > 0.0`
            // against a reset accumulator; every other lane is `r` itself.
            V::select_gt(r, zero, r, zero).store(acc);
            sigma.store(scale);
        } else {
            let cur = V::load(acc);
            V::select_gt(r, cur, r, cur).store(acc);
            V::select_gt(r, cur, sigma, V::load(scale)).store(scale);
        }
    }

    #[inline(always)]
    fn fold_one<const INIT: bool>(&mut self, i: usize, xx: f32, yy: f32, xy: f32) {
        let r = crate::hessian::blob_response(xx, yy, xy);
        if INIT {
            self.acc[i] = if r > 0.0 { r } else { 0.0 };
            self.scale[i] = self.sigma;
        } else if r > self.acc[i] {
            self.acc[i] = r;
            self.scale[i] = self.sigma;
        }
    }
}

/// One scale's worth of borrowed state for the fused sweep loop.
struct Sweep<'a, R> {
    src: &'a ImageF32,
    out: R,
    ring_g: &'a mut [f32],
    ring_d1: &'a mut [f32],
    ring_d2: &'a mut [f32],
    tg: &'a [f32],
    t1: &'a [f32],
    t2: &'a [f32],
    r: usize,
    ring_rows: usize,
    w: usize,
    h: usize,
    roi: Roi,
}

/// AVX2 clone of the sweep: the `#[target_feature]` attribute recompiles
/// the (fully inlined) loop body with 256-bit vectors available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn sweep_avx2<R: Response, const INIT: bool>(sweep: Sweep<'_, R>) {
    sweep.run::<F32x8, 4, INIT>();
}

/// AVX-512 clone of the sweep. The body stays at the 8-lane shape LLVM
/// lowers best; what AVX-512 buys here is the EVEX register file — 32
/// vector registers — which the deeper unroll (8 chunks, 24 live
/// accumulators) exploits to hide FP latency.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512bw,avx512vl")]
unsafe fn sweep_avx512<R: Response, const INIT: bool>(sweep: Sweep<'_, R>) {
    sweep.run::<F32x8, 8, INIT>();
}

impl<R: Response> Sweep<'_, R> {
    #[inline(always)]
    fn run<V: SimdF32, const U: usize, const INIT: bool>(self) {
        let Sweep {
            src,
            mut out,
            ring_g,
            ring_d1,
            ring_d2,
            tg,
            t1,
            t2,
            r,
            ring_rows,
            w,
            h,
            roi,
        } = self;
        let (x0, x1) = (roi.x, roi.right());
        let taps_n = tg.len();

        // First source row the column stage will ever read (top clamp).
        let mut next = roi.y.saturating_sub(r);
        let mut offsets = [0usize; MAX_TAPS];
        for y in roi.y..roi.bottom() {
            // Row stage: pull the ring forward to the deepest row this
            // output row reads. Each source row is row-filtered exactly
            // once.
            let deepest = (y + r).min(h - 1);
            while next <= deepest {
                let o = (next % ring_rows) * w;
                row_filter3::<V, U>(
                    src.row(next),
                    x0,
                    x1,
                    tg,
                    t1,
                    t2,
                    r,
                    &mut ring_g[o..o + w],
                    &mut ring_d1[o..o + w],
                    &mut ring_d2[o..o + w],
                );
                next += 1;
            }

            // Column + response stage: the per-tap ring-row base offsets
            // (same clamped row index as `convolve_cols`), then one fused
            // register pass per pixel chunk.
            for (j, o) in offsets[..taps_n].iter_mut().enumerate() {
                let sy = (y + j).saturating_sub(r).min(h - 1);
                *o = (sy % ring_rows) * w + x0;
            }
            col_response_row::<V, U, INIT, R>(
                ring_g,
                ring_d1,
                ring_d2,
                &offsets[..taps_n],
                tg,
                t1,
                t2,
                &mut out,
                (y - roi.y) * w + x0,
                x1 - x0,
            );
        }
    }
}

/// One row of the multi-kernel row sweep: reads `row` once and produces
/// the three row-filtered outputs together. Interior pixels run 8-lane
/// taps-inner chunks with the three accumulators in registers; border
/// pixels use the clamped-index scalar path. Per-pixel, per-output op
/// order matches `convolve_rows` exactly.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn row_filter3<V: SimdF32, const U: usize>(
    row: &[f32],
    x0: usize,
    x1: usize,
    tg: &[f32],
    t1: &[f32],
    t2: &[f32],
    r: usize,
    out_g: &mut [f32],
    out_d1: &mut [f32],
    out_d2: &mut [f32],
) {
    let w = row.len();
    // x is interior iff x - r >= 0 and x + r < w (same split as
    // `convolve_rows`).
    let int_lo = r.min(w);
    let int_hi = w.saturating_sub(r);
    let bl_end = x0.max(x1.min(int_lo));
    let ii_end = bl_end.max(x1.min(int_hi));
    let taps_n = tg.len();

    // Border segments: scalar, clamped-replicate, taps ascending.
    for seg in [x0..bl_end, ii_end..x1] {
        for x in seg {
            let mut ag = 0.0f32;
            let mut a1 = 0.0f32;
            let mut a2 = 0.0f32;
            for j in 0..taps_n {
                let sx = (x + j).saturating_sub(r).min(w - 1);
                let s = row[sx];
                ag += tg[j] * s;
                a1 += t1[j] * s;
                a2 += t2[j] * s;
            }
            out_g[x] = ag;
            out_d1[x] = a1;
            out_d2[x] = a2;
        }
    }

    // Interior: taps-inner with the three accumulators held in registers,
    // so each source element is loaded once per tap and the outputs are
    // written exactly once. Four 8-lane chunks per iteration give 12
    // independent accumulator chains (FP-add latency hiding); each tap's
    // source window is one unaligned contiguous load. Per-pixel
    // accumulation is still `0 + t0*s0 + t1*s1 + ...`, taps ascending.
    if bl_end < ii_end {
        let lanes = V::WIDTH;
        let len = ii_end - bl_end;
        let n_wide = len - len % (lanes * U);
        let n = len - len % lanes;
        let zero = V::splat(0.0);
        // One bound check per row for the unchecked loads/stores below:
        // the deepest source read is `(ii_end - 1) + r < w` (interior
        // definition) and every output store lands below `ii_end`.
        assert!(
            ii_end + r <= w
                && out_g.len() >= ii_end
                && out_d1.len() >= ii_end
                && out_d2.len() >= ii_end,
            "row filter bounds"
        );
        let mut x = 0;
        while x < n_wide {
            let base = bl_end + x - r;
            let mut ag = [zero; U];
            let mut a1 = [zero; U];
            let mut a2 = [zero; U];
            for j in 0..taps_n {
                let cg = V::splat(tg[j]);
                let c1 = V::splat(t1[j]);
                let c2 = V::splat(t2[j]);
                for c in 0..U {
                    // SAFETY: the deepest read ends at
                    // (ii_end - 1) + r + 1 <= w, asserted above.
                    let s = unsafe { V::load_at(row, base + j + c * lanes) };
                    ag[c] = ag[c] + cg * s;
                    a1[c] = a1[c] + c1 * s;
                    a2[c] = a2[c] + c2 * s;
                }
            }
            for c in 0..U {
                let o = bl_end + x + c * lanes;
                // SAFETY: o + lanes <= ii_end <= each output's length.
                unsafe {
                    ag[c].store_at(out_g, o);
                    a1[c].store_at(out_d1, o);
                    a2[c].store_at(out_d2, o);
                }
            }
            x += lanes * U;
        }
        while x < n {
            let base = bl_end + x - r;
            let mut ag = zero;
            let mut a1 = zero;
            let mut a2 = zero;
            for j in 0..taps_n {
                // SAFETY: see the wide loop above.
                let s = unsafe { V::load_at(row, base + j) };
                ag = ag + V::splat(tg[j]) * s;
                a1 = a1 + V::splat(t1[j]) * s;
                a2 = a2 + V::splat(t2[j]) * s;
            }
            let o = bl_end + x;
            // SAFETY: o + lanes <= ii_end <= each output's length.
            unsafe {
                ag.store_at(out_g, o);
                a1.store_at(out_d1, o);
                a2.store_at(out_d2, o);
            }
            x += lanes;
        }
        for x in bl_end + n..ii_end {
            let base = x - r;
            let mut ag = 0.0f32;
            let mut a1 = 0.0f32;
            let mut a2 = 0.0f32;
            for j in 0..taps_n {
                let s = row[base + j];
                ag += tg[j] * s;
                a1 += t1[j] * s;
                a2 += t2[j] * s;
            }
            out_g[x] = ag;
            out_d1[x] = a1;
            out_d2[x] = a2;
        }
    }
}

/// The fused column-convolution + response stage for one output row. For
/// each 8-lane pixel chunk the three column sums (taps ascending, from
/// `0.0` — the per-pixel op order of `convolve_cols`) accumulate in
/// registers and flow straight into [`Response::fold`] — the Hessian
/// components never touch memory at all. The scalar tail repeats the same
/// accumulation order and folds through the scalar response, so every
/// pixel is bit-identical to the unfused reference.
///
/// `offsets[j]` is the base index of tap `j`'s (clamped) ring row, already
/// shifted by the ROI's left edge; the row's `len` pixels fold into `out`
/// from index `at`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn col_response_row<V: SimdF32, const U: usize, const INIT: bool, R: Response>(
    ring_g: &[f32],
    ring_d1: &[f32],
    ring_d2: &[f32],
    offsets: &[usize],
    tg: &[f32],
    t1: &[f32],
    t2: &[f32],
    out: &mut R,
    at: usize,
    len: usize,
) {
    // The per-pixel column sums are latency chains (each tap's add depends
    // on the previous tap). Four chunks per tap iteration give the core
    // 12 independent accumulator chains to interleave, which is what
    // hides the FP-add latency; per-pixel op order is untouched.
    let lanes = V::WIDTH;
    let n = len - len % lanes;
    let n_wide = len - len % (lanes * U);
    let zero = V::splat(0.0);
    let taps_n = offsets.len();
    // One bound check per tap per row instead of one per load: every SIMD
    // load below reads `ring_*[o + x .. o + x + 8]` with `x + 8 <= n <= len`.
    for &o in offsets {
        assert!(
            o + len <= ring_g.len() && o + len <= ring_d1.len() && o + len <= ring_d2.len(),
            "ring offsets out of bounds"
        );
    }
    let mut x = 0;
    while x < n_wide {
        let mut xx = [zero; U];
        let mut yy = [zero; U];
        let mut xy = [zero; U];
        for j in 0..taps_n {
            let o = offsets[j] + x;
            let cg = V::splat(tg[j]);
            let c1 = V::splat(t1[j]);
            let c2 = V::splat(t2[j]);
            for c in 0..U {
                let oc = o + c * lanes;
                // Ixx = G''(x) then G(y); Iyy = G(x) then G''(y);
                // Ixy = G'(x) then G'(y).
                // SAFETY: oc + lanes <= offsets[j] + len, checked above.
                unsafe {
                    xx[c] = xx[c] + cg * V::load_at(ring_d2, oc);
                    yy[c] = yy[c] + c2 * V::load_at(ring_g, oc);
                    xy[c] = xy[c] + c1 * V::load_at(ring_d1, oc);
                }
            }
        }
        for c in 0..U {
            out.fold::<V, INIT>(at + x + c * lanes, xx[c], yy[c], xy[c]);
        }
        x += lanes * U;
    }
    while x < n {
        let mut xx = zero;
        let mut yy = zero;
        let mut xy = zero;
        for j in 0..taps_n {
            let o = offsets[j] + x;
            // SAFETY: o + lanes <= offsets[j] + len, checked above.
            unsafe {
                xx = xx + V::splat(tg[j]) * V::load_at(ring_d2, o);
                yy = yy + V::splat(t2[j]) * V::load_at(ring_g, o);
                xy = xy + V::splat(t1[j]) * V::load_at(ring_d1, o);
            }
        }
        out.fold::<V, INIT>(at + x, xx, yy, xy);
        x += lanes;
    }
    for x in n..len {
        let mut xx = 0.0f32;
        let mut yy = 0.0f32;
        let mut xy = 0.0f32;
        for j in 0..taps_n {
            let o = offsets[j] + x;
            xx += tg[j] * ring_d2[o];
            yy += t2[j] * ring_g[o];
            xy += t1[j] * ring_d1[o];
        }
        out.fold_one::<INIT>(at + x, xx, yy, xy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hessian::{
        accumulate_max_response, blob_response, hessian_at_scale, ridge_response, ReferenceScratch,
    };
    use crate::image::Image;

    /// The in-crate smoke check of the bit-exactness contract, for both
    /// responses; the full randomized sweeps live in
    /// `tests/fused_rdg_identity.rs`. Every scale takes a turn as the
    /// overwriting first one, the planes are compared after each scale,
    /// and each ROI is swept whole and as three row bands of one set of
    /// planes: a band's rows do not depend on where the bands are cut,
    /// for the blob response and its winning-scale plane too.
    #[test]
    fn fused_scale_bit_identical_to_reference() {
        for &(w, h) in &[(64usize, 48usize), (33, 61), (17, 17)] {
            let src: ImageF32 =
                Image::from_fn(w, h, |x, y| ((x * 31 + y * 17) % 101) as f32 * 0.37 - 12.5);
            let mut sigmas = [1.5f32, 2.5, 4.0];
            for _ in 0..sigmas.len() {
                sigmas.rotate_left(1);
                for roi in [
                    src.full_roi(),
                    Roi::new(3, 5, w.saturating_sub(7).max(1), h.saturating_sub(9).max(1)),
                ] {
                    check_both_responses(&src, &sigmas, roi);
                }
            }
        }
    }

    fn check_both_responses(src: &ImageF32, sigmas: &[f32], roi: Roi) {
        let (w, h) = src.dims();
        let c = roi.clamp_to(w, h);
        let mut rs = ReferenceScratch::new(w, h);
        let mut ref_ridge = ImageF32::new(w, h);
        let mut ref_blob = ImageF32::new(w, h);
        let mut ref_scale = ImageF32::filled(w, h, sigmas[0]);
        // [ridge, blob, winning scale] per banding; stale values where the
        // first scale has to overwrite
        let mut fused: Vec<(usize, [ImageF32; 3])> = [1usize, 3]
            .iter()
            .map(|&bands| (bands, [-7.0f32; 3].map(|v| ImageF32::filled(w, h, v))))
            .collect();
        let mut scratch = FusedScratch::new();
        for (k, &sigma) in sigmas.iter().enumerate() {
            hessian_at_scale(src, &mut rs.hessian, &mut rs.conv, roi, sigma);
            accumulate_max_response(&rs.hessian, &mut ref_ridge, roi, ridge_response);
            for y in c.y..c.bottom() {
                for x in c.x..c.right() {
                    let hess = &rs.hessian;
                    let r =
                        blob_response(hess.ixx.get(x, y), hess.iyy.get(x, y), hess.ixy.get(x, y));
                    if r > ref_blob.get(x, y) {
                        ref_blob.set(x, y, r);
                        ref_scale.set(x, y, sigma);
                    }
                }
            }

            let g = Kernel1D::gaussian(sigma);
            let d1 = Kernel1D::gaussian_d1(sigma);
            let d2 = Kernel1D::gaussian_d2(sigma);
            for (bands, [ridge, blob, scale]) in &mut fused {
                let parts = c.stripes(*bands);
                let rows = ridge
                    .row_bands(&parts)
                    .zip(blob.row_bands(&parts).zip(scale.row_bands(&parts)));
                for (&band, (acc, (blob, scale))) in parts.iter().zip(rows) {
                    let blob = BlobMax {
                        acc: blob,
                        scale,
                        sigma,
                    };
                    if k == 0 {
                        fused_ridge_scale_init(src, acc, &mut scratch, &g, &d1, &d2, band);
                        fused_scale::<_, true>(src, blob, &mut scratch, &g, &d1, &d2, band);
                    } else {
                        fused_ridge_scale(src, acc, &mut scratch, &g, &d1, &d2, band);
                        fused_scale::<_, false>(src, blob, &mut scratch, &g, &d1, &d2, band);
                    }
                }
                let planes = [
                    (&*ridge, &ref_ridge),
                    (&*blob, &ref_blob),
                    (&*scale, &ref_scale),
                ];
                for (p, (got, want)) in planes.into_iter().enumerate() {
                    for y in c.y..c.bottom() {
                        for x in c.x..c.right() {
                            assert_eq!(
                                got.get(x, y).to_bits(),
                                want.get(x, y).to_bits(),
                                "{w}x{h} scales {:?} roi {roi:?} {bands} band(s) plane {p} at ({x},{y})",
                                &sigmas[..=k]
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_grows_once_and_reports_bytes() {
        let src: ImageF32 = Image::filled(64, 64, 100.0);
        let mut acc = ImageF32::new(64, 64);
        let mut scratch = FusedScratch::new();
        assert_eq!(scratch.byte_size(), 0);
        let g = Kernel1D::gaussian(2.5);
        let d1 = Kernel1D::gaussian_d1(2.5);
        let d2 = Kernel1D::gaussian_d2(2.5);
        let acc = acc.as_mut_slice();
        fused_ridge_scale(&src, acc, &mut scratch, &g, &d1, &d2, src.full_roi());
        let r = g.radius();
        let expected = 3 * (2 * r + 1) * 64 * std::mem::size_of::<f32>();
        assert_eq!(scratch.byte_size(), expected);
        // a second identical pass reuses the buffers
        fused_ridge_scale(&src, acc, &mut scratch, &g, &d1, &d2, src.full_roi());
        assert_eq!(scratch.byte_size(), expected);
    }

    #[test]
    fn empty_roi_is_a_no_op() {
        let src: ImageF32 = Image::filled(16, 16, 1.0);
        let mut acc = ImageF32::filled(16, 16, -3.0);
        let mut scratch = FusedScratch::new();
        let g = Kernel1D::gaussian(1.5);
        let d1 = Kernel1D::gaussian_d1(1.5);
        let d2 = Kernel1D::gaussian_d2(1.5);
        fused_ridge_scale(
            &src,
            acc.as_mut_slice(),
            &mut scratch,
            &g,
            &d1,
            &d2,
            Roi::new(20, 20, 4, 4),
        );
        assert_eq!(acc.get(0, 0), -3.0);
        assert_eq!(scratch.byte_size(), 0);
    }
}
