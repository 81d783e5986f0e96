//! ENH — motion-compensated feature enhancement.
//!
//! Enhancement of the stent is performed by temporal integration of the
//! registered image frames according to the balloon markers (Section 3):
//! each incoming frame is warped by the estimated rigid transform so the
//! markers coincide with the reference, then accumulated into a running
//! average. Static (registered) structures such as the stent reinforce;
//! moving background and quantum noise average out, improving SNR by
//! roughly `sqrt(N)` for `N` integrated frames.

use crate::image::{ImageF32, ImageU16, Roi};
use crate::registration::RigidTransform;
use crate::simd::{narrow_row, F32x4, F32x8, F64x4, SimdF32};

/// Configuration of the enhancement task.
#[derive(Debug, Clone)]
pub struct EnhConfig {
    /// Temporal integration weight of the newest frame (recursive average);
    /// `1/n` gives a true running mean over the last `~n` frames.
    pub alpha: f32,
    /// Contrast stretch applied to the integrated image on readout.
    pub gain: f32,
}

impl Default for EnhConfig {
    fn default() -> Self {
        Self {
            alpha: 0.2,
            gain: 1.0,
        }
    }
}

/// Running state of the temporal integrator (the "intermediate" memory of
/// the ENH row in Table 1).
#[derive(Debug, Clone)]
pub struct EnhState {
    acc: ImageF32,
    /// One row of warped-sample scratch: `accumulate` resolves the
    /// inverse warp into this buffer row by row so the EWMA update runs
    /// as a contiguous SIMD stream over `acc`.
    row: Vec<f32>,
    frames_integrated: usize,
    /// Bounding box of the regions accumulated since the last reset; the
    /// accumulator is zero outside it.
    written: Roi,
}

impl EnhState {
    /// Creates an integrator for `width x height` frames.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            acc: ImageF32::new(width, height),
            row: vec![0.0; width],
            frames_integrated: 0,
            written: Roi::new(0, 0, 0, 0),
        }
    }

    /// Number of frames integrated so far.
    pub fn frames_integrated(&self) -> usize {
        self.frames_integrated
    }

    /// Resets the integrator (e.g. after a registration loss) in place,
    /// without reallocating the accumulator. Only what was accumulated
    /// since the last reset is cleared, so pages no region touched stay
    /// untouched.
    pub fn reset(&mut self) {
        let w = std::mem::replace(&mut self.written, Roi::new(0, 0, 0, 0));
        for y in w.y..w.bottom() {
            self.acc.row_mut(y)[w.x..w.right()].fill(0.0);
        }
        self.frames_integrated = 0;
    }

    /// Intermediate storage in bytes: the accumulator plane plus one
    /// f32 row of warp/sample scratch.
    pub fn byte_size(&self) -> usize {
        self.acc.byte_size() + self.row.len() * std::mem::size_of::<f32>()
    }

    /// The integration weight the next frame will receive (true running
    /// mean until `1/alpha` frames, then EWMA).
    pub fn next_weight(&self, cfg: &EnhConfig) -> f32 {
        let n = self.frames_integrated as f32;
        if self.frames_integrated == 0 {
            1.0
        } else {
            (1.0 / (n + 1.0)).max(cfg.alpha)
        }
    }

    /// Accumulates the warped `frame` into the average over `region` with
    /// the given weight. Disjoint regions can be processed independently
    /// (striped execution); call [`EnhState::commit`] once per frame
    /// afterwards.
    ///
    /// Bit-identical to [`EnhState::accumulate_reference`] (enforced by
    /// `tests/simd_stage_identity.rs`): the rotation's `sin_cos` and the
    /// row-constant warp terms are hoisted out of the pixel loop with the
    /// reference's operand order preserved, samples provably inside the
    /// frame skip the border clamps (which are no-ops there), and the
    /// EWMA update runs as a SIMD stream over the scratch row.
    pub fn accumulate(
        &mut self,
        frame: &ImageU16,
        transform: &RigidTransform,
        region: Roi,
        weight: f32,
    ) {
        assert_eq!(
            frame.dims(),
            self.acc.dims(),
            "state geometry must match the frame"
        );
        let region = region.clamp_to(frame.width(), frame.height());
        if region.width == 0 || region.height == 0 {
            return;
        }
        self.written = self.written.union(&region);
        let (w, h) = frame.dims();
        let (wm1, hm1) = ((w - 1) as f64, (h - 1) as f64);
        let (s, c) = transform.theta.sin_cos();
        let ns = -s;
        // With the all-zero transform the inverse warp reproduces every
        // integer pixel coordinate exactly (only `+ 0.0` / `* 0.0` terms
        // drop out, none of which can change a bit for non-negative
        // coordinates), so the sample row is just the frame row as f32.
        let identity = transform.theta == 0.0
            && transform.cx == 0.0
            && transform.cy == 0.0
            && transform.tx == 0.0
            && transform.ty == 0.0;
        for y in region.y..region.bottom() {
            let row = &mut self.row[..region.width];
            if identity {
                let src = &frame.row(y)[region.x..region.right()];
                for (d, &v) in row.iter_mut().zip(src) {
                    *d = v as f32;
                }
            } else {
                let dy = y as f64 - transform.cy - transform.ty;
                // The reference evaluates `s * dy` / `c * dy` per pixel;
                // both factors are row constants, so hoisting keeps bits.
                let (t1, t2) = (s * dy, c * dy);
                let warp = |i: usize| {
                    let dx = (region.x + i) as f64 - transform.cx - transform.tx;
                    let sx = (c * dx + t1) + transform.cx;
                    let sy = (ns * dx + t2) + transform.cy;
                    (sx, sy)
                };
                // `sx(i)` and `sy(i)` are monotone in `i` (linear in the
                // exactly-spaced `dx`, and IEEE ops are monotone), so each
                // border condition holds on a contiguous run of `i` and
                // their intersection is the interior interval. Finding it
                // up front lets the hot interior loop drop the per-pixel
                // border test, the branch and the bounds checks.
                let n = region.width;
                let (mut lo, mut hi) = (0usize, n);
                for cond in [
                    &(|i: usize| warp(i).0 >= 0.0) as &dyn Fn(usize) -> bool,
                    &|i: usize| warp(i).0 <= wm1,
                    &|i: usize| warp(i).1 >= 0.0,
                    &|i: usize| warp(i).1 <= hm1,
                ] {
                    let (a, b) = monotone_true_run(n, cond);
                    lo = lo.max(a);
                    hi = hi.min(b);
                }
                let (lo, hi) = if lo <= hi { (lo, hi) } else { (0, 0) };
                for (i, d) in row[..lo].iter_mut().enumerate() {
                    let (sx, sy) = warp(i);
                    *d = sample_frame(frame, sx, sy);
                }
                // SAFETY: the interior interval guarantees every index
                // in `lo..hi` warps into [0, w-1] x [0, h-1].
                unsafe {
                    warp_sample_interior(
                        &mut row[lo..hi],
                        region.x + lo,
                        c,
                        ns,
                        t1,
                        t2,
                        transform,
                        frame.as_slice(),
                        w,
                        h,
                    );
                }
                for (off, d) in row[hi..n].iter_mut().enumerate() {
                    let (sx, sy) = warp(hi + off);
                    *d = sample_frame(frame, sx, sy);
                }
            }
            let acc_row = &mut self.acc.row_mut(y)[region.x..region.x + region.width];
            ewma_row(acc_row, row, weight);
        }
    }

    /// Scalar reference for [`EnhState::accumulate`]: the plain per-pixel
    /// warp/sample/EWMA loop the SIMD path must reproduce bit for bit.
    pub fn accumulate_reference(
        &mut self,
        frame: &ImageU16,
        transform: &RigidTransform,
        region: Roi,
        weight: f32,
    ) {
        assert_eq!(
            frame.dims(),
            self.acc.dims(),
            "state geometry must match the frame"
        );
        let region = region.clamp_to(frame.width(), frame.height());
        self.written = self.written.union(&region);
        for y in region.y..region.bottom() {
            for x in region.x..region.right() {
                // registered sample: where does output pixel (x, y) come
                // from in the current frame?
                let (sx, sy) = transform.apply_inverse(x as f64, y as f64);
                let v = sample_frame(frame, sx, sy);
                let old = self.acc.get(x, y);
                self.acc.set(x, y, old + weight * (v - old));
            }
        }
    }

    /// Marks one frame as integrated (after all its regions accumulated).
    pub fn commit(&mut self) {
        self.frames_integrated += 1;
    }

    /// Reads the enhanced view of `roi` out of the accumulator into a
    /// caller-owned buffer (which must match the clamped ROI geometry), so
    /// sequence runners reuse one image across frames. Bit-identical to
    /// [`EnhState::readout_into_reference`]: the gain is one IEEE multiply
    /// per lane and `simd::narrow_row` narrows exactly like the scalar cast.
    pub fn readout_into(&self, roi: Roi, gain: f32, out: &mut ImageU16) {
        let roi = roi.clamp_to(self.acc.width(), self.acc.height());
        assert_eq!(
            out.dims(),
            (roi.width, roi.height),
            "readout buffer geometry mismatch"
        );
        let vg = F32x8::splat(gain);
        for y in 0..roi.height {
            let acc_row = &self.acc.row(roi.y + y)[roi.x..roi.x + roi.width];
            narrow_row(
                out.row_mut(y),
                #[inline(always)]
                |i, _| F32x8::load(&acc_row[i..]) * vg,
                |j, _| acc_row[j] * gain,
            );
        }
    }

    /// Scalar reference for [`EnhState::readout_into`].
    pub fn readout_into_reference(&self, roi: Roi, gain: f32, out: &mut ImageU16) {
        let roi = roi.clamp_to(self.acc.width(), self.acc.height());
        assert_eq!(
            out.dims(),
            (roi.width, roi.height),
            "readout buffer geometry mismatch"
        );
        for y in 0..roi.height {
            let acc_row = &self.acc.row(roi.y + y)[roi.x..roi.x + roi.width];
            let out_row = out.row_mut(y);
            for (o, &a) in out_row.iter_mut().zip(acc_row) {
                *o = (a * gain).clamp(0.0, u16::MAX as f32) as u16;
            }
        }
    }
}

/// The contiguous run of `i` in `0..n` where `cond` holds. `cond` must be
/// monotone in `i` (it flips at most once), so the run is a prefix, a
/// suffix, the whole range, or empty; the flip point is found by
/// bisection with the exact predicate — no arithmetic inversion that
/// could disagree with the per-pixel evaluation by a rounding step.
fn monotone_true_run(n: usize, cond: &dyn Fn(usize) -> bool) -> (usize, usize) {
    if n == 0 {
        return (0, 0);
    }
    match (cond(0), cond(n - 1)) {
        (true, true) => (0, n),
        (false, false) => (0, 0),
        (false, true) => {
            let (mut f, mut t) = (0, n - 1);
            while f + 1 < t {
                let m = (f + t) / 2;
                if cond(m) {
                    t = m;
                } else {
                    f = m;
                }
            }
            (t, n)
        }
        (true, false) => {
            let (mut t, mut f) = (0, n - 1);
            while t + 1 < f {
                let m = (t + f) / 2;
                if cond(m) {
                    t = m;
                } else {
                    f = m;
                }
            }
            (0, t + 1)
        }
    }
}

/// Warp + bilinear sample of one **interior** row segment, four pixels
/// per step: the f64 coordinate warp runs through [`F64x4`] lanes (with
/// `floor` + [`F64x4::whole_to_u32`] replacing the saturating `as usize`
/// cast, which LLVM cannot vectorize), the four neighbor gathers stay
/// scalar, and the blend runs through [`F32x4`] lanes. Every lane op is
/// IEEE-exact with the reference's operand order, and truncation equals
/// floor for the non-negative interior coordinates, so the results are
/// bit-identical to `sample_frame` minus its (provably idle) clamps.
///
/// `base` is the absolute x of `row[0]`; `c`/`ns`/`t1`/`t2` are the
/// hoisted warp terms of the current row.
///
/// # Safety
/// Every index in `base..base + row.len()` must warp into
/// `[0, w-1] x [0, h-1]` — establishing that interval is the caller's
/// job (`monotone_true_run`); outside it the unchecked gathers are UB.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn warp_sample_interior_body(
    row: &mut [f32],
    base: usize,
    c: f64,
    ns: f64,
    t1: f64,
    t2: f64,
    t: &RigidTransform,
    data: &[u16],
    w: usize,
    h: usize,
) {
    let n = row.len();
    let cv = F64x4::splat(c);
    let nsv = F64x4::splat(ns);
    let cxv = F64x4::splat(t.cx);
    let cyv = F64x4::splat(t.cy);
    let t1v = F64x4::splat(t1);
    let t2v = F64x4::splat(t2);
    let one = F32x4::splat(1.0);
    let mut i = 0usize;
    while i + 4 <= n {
        let x = base + i;
        // Each lane is the exact scalar `(x as f64 - cx) - tx` of its
        // pixel; the cast is exact and the subtraction order matches.
        let dxv = F64x4([
            x as f64 - t.cx - t.tx,
            (x + 1) as f64 - t.cx - t.tx,
            (x + 2) as f64 - t.cx - t.tx,
            (x + 3) as f64 - t.cx - t.tx,
        ]);
        let sxv = cv * dxv + t1v + cxv;
        let syv = nsv * dxv + t2v + cyv;
        let xfv = sxv.floor();
        let yfv = syv.floor();
        let fx = F32x4((sxv - xfv).narrow());
        let fy = F32x4((syv - yfv).narrow());
        // The caller's interval contract puts every lane in
        // [0, w-1] x [0, h-1], so the floors are whole numbers in range.
        let (x0s, y0s) = (xfv.whole_to_u32(), yfv.whole_to_u32());
        let mut v00 = [0.0f32; 4];
        let mut v10 = [0.0f32; 4];
        let mut v01 = [0.0f32; 4];
        let mut v11 = [0.0f32; 4];
        for k in 0..4 {
            // SAFETY (gathers): the floors are exact in-frame indices, so
            // all clamped neighbor indices are in bounds.
            let (x0, y0) = (x0s[k] as usize, y0s[k] as usize);
            let x1 = (x0 + 1).min(w - 1);
            let y1 = (y0 + 1).min(h - 1);
            let (r0, r1) = (y0 * w, y1 * w);
            v00[k] = *data.get_unchecked(r0 + x0) as f32;
            v10[k] = *data.get_unchecked(r0 + x1) as f32;
            v01[k] = *data.get_unchecked(r1 + x0) as f32;
            v11[k] = *data.get_unchecked(r1 + x1) as f32;
        }
        let gx = one - fx;
        let gy = one - fy;
        let v = F32x4(v00) * gx * gy
            + F32x4(v10) * fx * gy
            + F32x4(v01) * gx * fy
            + F32x4(v11) * fx * fy;
        v.store(&mut row[i..i + 4]);
        i += 4;
    }
    for (off, d) in row[i..n].iter_mut().enumerate() {
        let x = base + i + off;
        let dx = x as f64 - t.cx - t.tx;
        let sx = (c * dx + t1) + t.cx;
        let sy = (ns * dx + t2) + t.cy;
        let (x0, y0) = (sx as usize, sy as usize);
        let x1 = (x0 + 1).min(w - 1);
        let y1 = (y0 + 1).min(h - 1);
        let fx = (sx - x0 as f64) as f32;
        let fy = (sy - y0 as f64) as f32;
        let (r0, r1) = (y0 * w, y1 * w);
        let v00 = *data.get_unchecked(r0 + x0) as f32;
        let v10 = *data.get_unchecked(r0 + x1) as f32;
        let v01 = *data.get_unchecked(r1 + x0) as f32;
        let v11 = *data.get_unchecked(r1 + x1) as f32;
        *d = v00 * (1.0 - fx) * (1.0 - fy)
            + v10 * fx * (1.0 - fy)
            + v01 * (1.0 - fx) * fy
            + v11 * fx * fy;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn warp_sample_interior_avx2(
    row: &mut [f32],
    base: usize,
    c: f64,
    ns: f64,
    t1: f64,
    t2: f64,
    t: &RigidTransform,
    data: &[u16],
    w: usize,
    h: usize,
) {
    warp_sample_interior_body(row, base, c, ns, t1, t2, t, data, w, h);
}

/// Dispatcher for [`warp_sample_interior_body`] (same safety contract).
///
/// # Safety
/// See [`warp_sample_interior_body`].
#[allow(clippy::too_many_arguments)]
unsafe fn warp_sample_interior(
    row: &mut [f32],
    base: usize,
    c: f64,
    ns: f64,
    t1: f64,
    t2: f64,
    t: &RigidTransform,
    data: &[u16],
    w: usize,
    h: usize,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement is checked at runtime above;
            // the interval contract is the caller's.
            warp_sample_interior_avx2(row, base, c, ns, t1, t2, t, data, w, h);
            return;
        }
    }
    // Portable fallback (including aarch64, where the f64 lanes lower to
    // NEON float64x2 pairs under the baseline feature set).
    warp_sample_interior_body(row, base, c, ns, t1, t2, t, data, w, h);
}

/// EWMA update of one accumulator row: `acc[i] += w * (src[i] - acc[i])`
/// with the reference's operand order, chunked over SIMD lanes.
#[inline(always)]
fn ewma_row_body<V: SimdF32>(acc: &mut [f32], src: &[f32], weight: f32) {
    assert_eq!(acc.len(), src.len());
    let n = acc.len();
    let vw = V::splat(weight);
    let mut i = 0;
    while i + V::WIDTH <= n {
        // SAFETY: the loop bound keeps `i + WIDTH` within both slices.
        unsafe {
            let a = V::load_at(acc, i);
            let v = V::load_at(src, i);
            (a + vw * (v - a)).store_at(acc, i);
        }
        i += V::WIDTH;
    }
    for j in i..n {
        let a = acc[j];
        acc[j] = a + weight * (src[j] - a);
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn ewma_row_avx2(acc: &mut [f32], src: &[f32], weight: f32) {
    ewma_row_body::<F32x8>(acc, src, weight);
}

fn ewma_row(acc: &mut [f32], src: &[f32], weight: f32) {
    // Streaming kernels are memory-bound; one AVX2 clone is all the
    // width x86 can use (AVX-512 machines take the same 8-lane shape).
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the AVX2 requirement is checked at runtime above.
            unsafe { ewma_row_avx2(acc, src, weight) };
            return;
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        ewma_row_body::<crate::simd::NeonF32x4>(acc, src, weight);
        return;
    }
    #[cfg(not(target_arch = "aarch64"))]
    ewma_row_body::<F32x8>(acc, src, weight);
}

/// Bilinear sample of a u16 frame at fractional coordinates with border
/// replication.
#[inline]
fn sample_frame(frame: &ImageU16, x: f64, y: f64) -> f32 {
    let (w, h) = frame.dims();
    let xf = x.clamp(0.0, (w - 1) as f64);
    let yf = y.clamp(0.0, (h - 1) as f64);
    let x0 = xf.floor() as usize;
    let y0 = yf.floor() as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let fx = (xf - x0 as f64) as f32;
    let fy = (yf - y0 as f64) as f32;
    let v00 = frame.get(x0, y0) as f32;
    let v10 = frame.get(x1, y0) as f32;
    let v01 = frame.get(x0, y1) as f32;
    let v11 = frame.get(x1, y1) as f32;
    v00 * (1.0 - fx) * (1.0 - fy) + v10 * fx * (1.0 - fy) + v01 * (1.0 - fx) * fy + v11 * fx * fy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    /// One ENH step as the executor sequences it — weight, accumulate,
    /// commit, read out — returning the enhanced view of the clamped ROI.
    fn enh_integrate(
        frame: &ImageU16,
        transform: &RigidTransform,
        roi: Roi,
        cfg: &EnhConfig,
        state: &mut EnhState,
    ) -> ImageU16 {
        let roi = roi.clamp_to(frame.width(), frame.height());
        let w_new = state.next_weight(cfg);
        state.accumulate(frame, transform, roi, w_new);
        state.commit();
        let mut out = ImageU16::new(roi.width, roi.height);
        state.readout_into(roi, cfg.gain, &mut out);
        out
    }

    /// Noise standard deviation of an image region.
    fn region_std(img: &ImageU16, roi: Roi) -> f64 {
        let n = roi.area() as f64;
        let (mut sum, mut sum2) = (0.0f64, 0.0f64);
        for y in roi.y..roi.bottom() {
            for &v in &img.row(y)[roi.x..roi.right()] {
                sum += v as f64;
                sum2 += (v as f64) * (v as f64);
            }
        }
        let mean = sum / n;
        (sum2 / n - mean * mean).max(0.0).sqrt()
    }

    #[test]
    fn first_frame_passes_through() {
        let frame = Image::from_fn(32, 32, |x, y| ((x + y) * 10) as u16);
        let mut state = EnhState::new(32, 32);
        let out = enh_integrate(
            &frame,
            &RigidTransform::identity(),
            frame.full_roi(),
            &EnhConfig::default(),
            &mut state,
        );
        for y in 0..32 {
            for x in 0..32 {
                assert_eq!(out.get(x, y), frame.get(x, y), "({x},{y})");
            }
        }
        assert_eq!(state.frames_integrated(), 1);
    }

    #[test]
    fn integration_averages_noise_down() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut state = EnhState::new(32, 32);
        let cfg = EnhConfig::default();
        let roi = Roi::full(32, 32);
        let mut last = ImageU16::new(32, 32);
        for _ in 0..10 {
            let frame = Image::from_fn(32, 32, |_, _| {
                (1000.0 + rng.gen_range(-200.0..200.0)) as u16
            });
            last = enh_integrate(&frame, &RigidTransform::identity(), roi, &cfg, &mut state);
        }
        let single = Image::from_fn(32, 32, |_, _| {
            (1000.0 + rng.gen_range(-200.0..200.0)) as u16
        });
        let noisy = region_std(&single, roi);
        let enhanced = region_std(&last, roi);
        assert!(
            enhanced < noisy * 0.55,
            "integration did not reduce noise: {} vs {}",
            enhanced,
            noisy
        );
    }

    #[test]
    fn reset_clears_history() {
        let frame = ImageU16::filled(16, 16, 4000);
        let mut state = EnhState::new(16, 16);
        let cfg = EnhConfig::default();
        enh_integrate(
            &frame,
            &RigidTransform::identity(),
            frame.full_roi(),
            &cfg,
            &mut state,
        );
        state.reset();
        assert_eq!(state.frames_integrated(), 0);
        let dark = ImageU16::filled(16, 16, 100);
        let out = enh_integrate(
            &dark,
            &RigidTransform::identity(),
            dark.full_roi(),
            &cfg,
            &mut state,
        );
        assert_eq!(out.get(8, 8), 100);
    }

    #[test]
    fn reset_clears_every_region_accumulated() {
        let frame = ImageU16::filled(16, 16, 4000);
        let mut state = EnhState::new(16, 16);
        let id = RigidTransform::identity();
        state.accumulate(&frame, &id, Roi::new(1, 2, 5, 3), 1.0);
        state.accumulate_reference(&frame, &id, Roi::new(9, 10, 6, 4), 1.0);
        state.commit();
        state.reset();
        assert!((0..16).all(|y| state.acc.row(y).iter().all(|&v| v == 0.0)));
    }

    #[test]
    fn warp_compensates_translation() {
        // a bright dot moves by (3, 0) in frame 2; the transform maps frame-2
        // coordinates back onto the reference, so the integrated dot stays put.
        let dot = |cx: usize| {
            Image::from_fn(
                32,
                32,
                move |x, y| if x == cx && y == 16 { 4000u16 } else { 100 },
            )
        };
        let f1 = dot(10);
        let f2 = dot(13);
        let mut state = EnhState::new(32, 32);
        let cfg = EnhConfig {
            alpha: 0.5,
            ..Default::default()
        };
        enh_integrate(
            &f1,
            &RigidTransform::identity(),
            f1.full_roi(),
            &cfg,
            &mut state,
        );
        // transform: current (13,16) maps to reference (10,16)
        let t = RigidTransform {
            theta: 0.0,
            cx: 0.0,
            cy: 0.0,
            tx: -3.0,
            ty: 0.0,
        };
        let out = enh_integrate(&f2, &t, f2.full_roi(), &cfg, &mut state);
        // the dot energy accumulates at x=10, not split between 10 and 13
        assert!(out.get(10, 16) > 3000, "registered dot {}", out.get(10, 16));
        assert!(
            out.get(13, 16) < 500,
            "ghost at original position {}",
            out.get(13, 16)
        );
    }

    #[test]
    fn roi_restriction_leaves_rest_at_zero() {
        let frame = ImageU16::filled(32, 32, 1000);
        let mut state = EnhState::new(32, 32);
        let roi = Roi::new(8, 8, 8, 8);
        let out = enh_integrate(
            &frame,
            &RigidTransform::identity(),
            roi,
            &EnhConfig::default(),
            &mut state,
        );
        assert_eq!(out.dims(), (8, 8));
        // accumulator outside ROI untouched
        assert_eq!(state.acc.get(0, 0), 0.0);
        assert!(state.acc.get(10, 10) > 0.0);
    }

    #[test]
    fn gain_scales_output() {
        let frame = ImageU16::filled(8, 8, 1000);
        let mut state = EnhState::new(8, 8);
        let cfg = EnhConfig {
            alpha: 0.2,
            gain: 2.0,
        };
        let out = enh_integrate(
            &frame,
            &RigidTransform::identity(),
            frame.full_roi(),
            &cfg,
            &mut state,
        );
        assert_eq!(out.get(4, 4), 2000);
    }

    #[test]
    fn simd_paths_match_reference_bits() {
        // Odd width exercises the remainder lanes; the rotated transform
        // exercises both the interior fast path and the border fallback.
        let frame = Image::from_fn(37, 29, |x, y| ((x * 7 + y * 13) % 4096) as u16);
        let transforms = [
            RigidTransform::identity(),
            RigidTransform {
                theta: 0.13,
                cx: 18.0,
                cy: 14.0,
                tx: 1.7,
                ty: -2.3,
            },
        ];
        for t in &transforms {
            let mut fast = EnhState::new(37, 29);
            let mut reference = EnhState::new(37, 29);
            for weight in [1.0f32, 0.3] {
                fast.accumulate(&frame, t, frame.full_roi(), weight);
                reference.accumulate_reference(&frame, t, frame.full_roi(), weight);
            }
            for y in 0..29 {
                for x in 0..37 {
                    assert_eq!(
                        fast.acc.get(x, y).to_bits(),
                        reference.acc.get(x, y).to_bits(),
                        "acc differs at ({x},{y}) for {t:?}"
                    );
                }
            }
            let roi = Roi::new(3, 2, 31, 23);
            let mut a = ImageU16::new(31, 23);
            let mut b = ImageU16::new(31, 23);
            fast.readout_into(roi, 1.7, &mut a);
            fast.readout_into_reference(roi, 1.7, &mut b);
            for y in 0..23 {
                assert_eq!(a.row(y), b.row(y), "readout row {y} differs");
            }
        }
    }

    #[test]
    fn sample_frame_interpolates() {
        let frame = Image::from_vec(2, 1, vec![0u16, 100]);
        assert!((sample_frame(&frame, 0.5, 0.0) - 50.0).abs() < 1e-4);
        assert!((sample_frame(&frame, 0.25, 0.0) - 25.0).abs() < 1e-4);
    }
}
