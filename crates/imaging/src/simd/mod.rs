//! Explicit-width SIMD vectors with multi-arch dispatch.
//!
//! The hot stages of the frame path (fused RDG sweeps, ENH integration,
//! ZOOM interpolation, guide-wire scoring) run their inner loops over
//! fixed-width lane chunks so the compiler has an explicit,
//! dependency-free shape to vectorize. Every operation is IEEE-exact per
//! lane — no FMA contraction, no reassociation — so lane results are
//! bit-identical to the equivalent scalar expression *at any width*.
//! That invariant is what lets each stage pick its vector type per CPU
//! and still reproduce its exported reference implementation bit for
//! bit (enforced by the `*_identity` proptest suites).
//!
//! # Dispatch matrix
//!
//! | Target | Vector type | Selection |
//! |---|---|---|
//! | `x86_64` + AVX-512F | [`F32x8`] under `#[target_feature(enable = "avx512f")]` | runtime (`is_x86_feature_detected!`) |
//! | `x86_64` + AVX2 | [`F32x8`] under `#[target_feature(enable = "avx2")]` | runtime (`is_x86_feature_detected!`) |
//! | `aarch64` | `NeonF32x4` (NEON intrinsics) for the fused sweeps and `ewma_row`; [`F32x8`] through `narrow_row` for the pixel-writing sites | compile time — NEON is baseline on aarch64 |
//! | anything else | [`F32x8`] (portable array lanes) | fallback |
//!
//! The portable types ([`F32x8`], [`F32x4`]) are plain aligned arrays
//! whose ops are straight per-lane maps — a `wide`-style fallback
//! without the external crate — that LLVM lowers to packed instructions
//! on any SIMD target and to scalar code otherwise. On x86 the stage
//! kernels monomorphize the same generic body under
//! `#[target_feature]` clones, following the arch-gated module layout
//! `jxl-oxide` uses for its SIMD paths. On aarch64 the `NeonF32x4`
//! type wraps `core::arch::aarch64` intrinsics directly; NEON is part
//! of the aarch64 baseline so no runtime detection is needed.
//!
//! # Narrowing to `u16`
//!
//! Every stage that writes pixels (ZOOM, ENH readout, RDG synthesis) ends
//! in the scalar `v.clamp(0.0, 65535.0) as u16`, whose saturating cast
//! LLVM will not vectorize. `narrow_row` is the one place that
//! narrowing happens: the stage supplies its `f32` arithmetic per lane
//! chunk, and the row runs in an AVX2 clone on x86_64 (`vcvttps2dq` +
//! `vpackusdw`) or lane by lane elsewhere, bit for bit the scalar cast.
//! On aarch64 that means the portable [`F32x8`] and per-lane narrowing;
//! the speed of those four sites there has not been measured.

use std::ops::{Add, Div, Mul, Sub};

mod portable;
pub use portable::{F32x4, F32x8, F64x4};

#[cfg(target_arch = "aarch64")]
mod neon;
#[cfg(target_arch = "aarch64")]
pub use neon::NeonF32x4;

/// Lane count of [`F32x8`]. Inner loops chunk by this and fall back to
/// scalar code (same per-pixel op order) for the remainder.
pub const LANES: usize = 8;

/// The operations the stage kernels need from a fixed-width f32 vector,
/// all IEEE-exact per lane. Implemented by the portable [`F32x8`] /
/// [`F32x4`] and by `NeonF32x4` on aarch64; each kernel is generic
/// over this so one body serves every dispatch width.
pub trait SimdF32:
    Copy + Add<Output = Self> + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    /// Lane count of the implementing vector.
    const WIDTH: usize;

    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;
    /// Loads `WIDTH` consecutive lanes from `s` (panics if short).
    fn load(s: &[f32]) -> Self;
    /// Stores the lanes into `d` (panics if short).
    fn store(self, d: &mut [f32]);
    /// Loads `WIDTH` lanes from `s` at `i` without a bounds check.
    ///
    /// # Safety
    /// `i + WIDTH <= s.len()` must hold.
    unsafe fn load_at(s: &[f32], i: usize) -> Self;
    /// Stores the lanes into `d` at `i` without a bounds check.
    ///
    /// # Safety
    /// `i + WIDTH <= d.len()` must hold.
    unsafe fn store_at(self, d: &mut [f32], i: usize);
    /// Per-lane `sqrt` (IEEE-exact, identical to scalar `f32::sqrt`).
    fn sqrt(self) -> Self;
    /// Per-lane absolute value.
    fn abs(self) -> Self;
    /// Per-lane `f32::min` (propagates the non-NaN operand, like scalar).
    fn min(self, rhs: Self) -> Self;
    /// Per-lane select: `if a > b { t } else { f }`.
    fn select_gt(a: Self, b: Self, t: Self, f: Self) -> Self;
}

/// Writes every pixel of `row` as `v.clamp(0.0, 65535.0) as u16` (NaN →
/// 0), where `v` is computed from the pixel's index and its current value
/// (exact in `f32`): `chunk(i, old)` for each full [`LANES`]-wide chunk
/// (`i` = 0, `LANES`, …, so `i + LANES <= row.len()`), `lane(j, old)` for
/// each pixel of the tail.
///
/// On x86_64 with AVX2 the loop runs in a `#[target_feature]` clone the
/// closures inline into, and each chunk narrows in four instructions:
/// `vmaxps` against zero (which returns the zero for a NaN lane), `vminps`
/// against 65535, `vcvttps2dq` (truncation, like `as`) and `vpackusdw`.
/// Elsewhere each lane takes the scalar cast. Mark `chunk`
/// `#[inline(always)]`: outlined, it is compiled without AVX2.
pub(crate) fn narrow_row(
    row: &mut [u16],
    chunk: impl FnMut(usize, F32x8) -> F32x8,
    lane: impl FnMut(usize, f32) -> f32,
) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the AVX2 requirement is checked at runtime above.
        return unsafe { narrow_row_avx2(row, chunk, lane) };
    }
    narrow_row_with(row, chunk, lane, narrow_lanes);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn narrow_row_avx2(
    row: &mut [u16],
    chunk: impl FnMut(usize, F32x8) -> F32x8,
    lane: impl FnMut(usize, f32) -> f32,
) {
    narrow_row_with(row, chunk, lane, |v, d| narrow_lanes_avx2(v, d));
}

/// The loop of [`narrow_row`], with the chunk narrowing as a parameter.
#[inline(always)]
fn narrow_row_with(
    row: &mut [u16],
    mut chunk: impl FnMut(usize, F32x8) -> F32x8,
    mut lane: impl FnMut(usize, f32) -> f32,
    narrow: impl Fn(F32x8, &mut [u16; LANES]),
) {
    let (chunks, tail) = row.as_chunks_mut::<LANES>();
    let base = chunks.len() * LANES;
    for (c, d) in chunks.iter_mut().enumerate() {
        let v = chunk(c * LANES, F32x8(d.map(f32::from)));
        narrow(v, d);
    }
    for (k, o) in tail.iter_mut().enumerate() {
        *o = lane(base + k, f32::from(*o)).clamp(0.0, 65535.0) as u16;
    }
}

/// One chunk of [`narrow_row`], lane by lane.
#[inline(always)]
fn narrow_lanes(v: F32x8, d: &mut [u16; LANES]) {
    for (o, x) in d.iter_mut().zip(v.0) {
        *o = x.clamp(0.0, 65535.0) as u16;
    }
}

/// One chunk of [`narrow_row`] in AVX2: the same value in every lane as
/// [`narrow_lanes`]. `vmaxps` returns its second operand when either is
/// NaN, so NaN lanes leave it as `+0.0`; the clamped lanes are in
/// `[0, 65535]`, where truncation and the unsigned pack are exact.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn narrow_lanes_avx2(v: F32x8, d: &mut [u16; LANES]) {
    use std::arch::x86_64::*;
    // SAFETY: the load reads the 8 lanes of `v` and the store writes the
    // 16 bytes of `d`; neither needs alignment.
    unsafe {
        let x = _mm256_loadu_ps(v.0.as_ptr());
        let c = _mm256_min_ps(
            _mm256_max_ps(x, _mm256_setzero_ps()),
            _mm256_set1_ps(65535.0),
        );
        let q = _mm256_cvttps_epi32(c);
        let p = _mm_packus_epi32(_mm256_castsi256_si128(q), _mm256_extracti128_si256::<1>(q));
        _mm_storeu_si128(d.as_mut_ptr().cast(), p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Lanes where a narrowing can go wrong: NaN, signed zeros and
    /// infinities, subnormals, negatives that truncate to zero, fractions a
    /// rounding conversion would round up, and the edges of the range.
    const EDGES: [f32; 19] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-40,
        -0.5,
        -1.0,
        0.75,
        1.5,
        2.7,
        4095.5,
        65534.75,
        65534.999,
        65535.0,
        65535.5,
        65536.0,
        1e9,
    ];

    #[test]
    fn narrow_row_is_the_scalar_cast_at_every_tail_length() {
        for n in 0..=2 * LANES {
            for shift in 0..EDGES.len() {
                let v: Vec<f32> = (0..n).map(|k| EDGES[(k + shift) % EDGES.len()]).collect();
                let expect: Vec<u16> = v.iter().map(|&x| x.clamp(0.0, 65535.0) as u16).collect();
                let mut row = vec![7u16; n];
                narrow_row(
                    &mut row,
                    #[inline(always)]
                    |i, _| F32x8::load(&v[i..]),
                    |j, _| v[j],
                );
                assert_eq!(row, expect, "{n} lanes from edge {shift}");
                // the lane-by-lane form, which AVX2 hosts never dispatch to
                let mut row = vec![7u16; n];
                narrow_row_with(
                    &mut row,
                    |i, _| F32x8::load(&v[i..]),
                    |j, _| v[j],
                    narrow_lanes,
                );
                assert_eq!(row, expect, "{n} lanes from edge {shift}, lane by lane");
            }
        }
    }

    #[test]
    fn narrow_row_hands_each_pixel_its_exact_value() {
        let orig: Vec<u16> = (0..2 * LANES + 3)
            .map(|k| [0, 1, 4097, 32768, 65534, 65535][k % 6])
            .collect();
        let mut row = orig.clone();
        narrow_row(
            &mut row,
            #[inline(always)]
            |_, old| old,
            |_, old| old,
        );
        assert_eq!(row, orig);
        // brightening saturates at the top of the range and nowhere else
        narrow_row(
            &mut row,
            #[inline(always)]
            |_, old| old + F32x8::splat(1.0),
            |_, old| old + 1.0,
        );
        let expect: Vec<u16> = orig.iter().map(|&o| o.saturating_add(1)).collect();
        assert_eq!(row, expect);
    }
}
