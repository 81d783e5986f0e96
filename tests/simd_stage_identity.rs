//! Property tests pinning the SIMD-vectorized frame-path stages (ENH
//! accumulate/readout, separable ZOOM, guide-wire DP) to their exported
//! scalar reference implementations: for **any** frame content, ROI,
//! transform, gain, zoom geometry and corridor configuration, the
//! dispatched fast paths must be **bit-identical** to the references.
//! Mirrors `fused_rdg_identity.rs`, which covers the fused RDG core.
//!
//! The vendored offline proptest does not replay regression files, so the
//! historically interesting shapes are pinned as explicit unit tests at
//! the bottom.

use proptest::prelude::*;
use proptest::TestCaseError;
use triple_c::imaging::couples::Couple;
use triple_c::imaging::enhance::EnhState;
use triple_c::imaging::guidewire::{gw_extract_reference, gw_extract_with, GwConfig, GwScratch};
use triple_c::imaging::image::{Image, ImageF32, ImageU16, Roi};
use triple_c::imaging::markers::Marker;
use triple_c::imaging::registration::RigidTransform;
use triple_c::imaging::zoom::{zoom_band_reference, zoom_band_with, ZoomConfig, ZoomScratch};

/// Deterministic pseudo-random frame over the full `u16` range (same LCG
/// family as the RDG suite), so gains reach both ends of the output clamp.
fn frame(width: usize, height: usize, seed: u64) -> ImageU16 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    Image::from_fn(width, height, |_, _| next() as u16)
}

fn assert_rows_identical(a: &ImageU16, b: &ImageU16) -> Result<(), TestCaseError> {
    prop_assert_eq!(a.dims(), b.dims());
    for y in 0..a.height() {
        prop_assert!(a.row(y) == b.row(y), "row {y} differs");
    }
    Ok(())
}

proptest! {
    /// The hoisted/SIMD ENH accumulate and readout are bit-identical to
    /// the per-pixel reference for arbitrary rigid transforms (including
    /// samples escaping the frame), regions, weights and gains.
    #[test]
    fn enh_accumulate_and_readout_match_reference(
        width in 24usize..72,
        height in 24usize..72,
        seed in 0u64..u64::MAX,
        warp in (-400i32..400, -8i32..8, -8i32..8),
        region_xywh in (0usize..20, 0usize..20, 1usize..72, 1usize..72),
        weight_pct in 1u32..101,
        gain_pct in 10u32..400,
        identity in any::<bool>(),
    ) {
        let (theta_mdeg, tx, ty) = warp;
        let (rx, ry, rw, rh) = region_xywh;
        let src = frame(width, height, seed);
        let transform = if identity {
            RigidTransform::identity()
        } else {
            RigidTransform {
                theta: theta_mdeg as f64 / 1000.0,
                cx: width as f64 / 2.0,
                cy: height as f64 / 2.0,
                tx: tx as f64,
                ty: ty as f64,
            }
        };
        let region = Roi { x: rx, y: ry, width: rw, height: rh };
        let weight = weight_pct as f32 / 100.0;
        let mut fast = EnhState::new(width, height);
        let mut reference = EnhState::new(width, height);
        // two rounds so the second accumulate sees a non-zero accumulator
        for round in 0..2 {
            let w = if round == 0 { 1.0 } else { weight };
            fast.accumulate(&src, &transform, region, w);
            reference.accumulate_reference(&src, &transform, region, w);
        }
        // rx/ry < 20 < width/height, so the clamped region is never empty
        let roi = region.clamp_to(width, height);
        let gain = gain_pct as f32 / 100.0;
        let mut out_fast = ImageU16::new(roi.width, roi.height);
        let mut out_ref = ImageU16::new(roi.width, roi.height);
        fast.readout_into(roi, gain, &mut out_fast);
        reference.readout_into_reference(roi, gain, &mut out_ref);
        assert_rows_identical(&out_fast, &out_ref)?;
    }

    /// The pooled separable SIMD zoom is bit-identical to its scalar
    /// reference for arbitrary source geometry, ROI and output geometry —
    /// including the plan/row-cache reuse across bands.
    #[test]
    fn zoom_band_matches_reference(
        width in 16usize..64,
        height in 16usize..64,
        seed in 0u64..u64::MAX,
        roi_xywh in (0usize..12, 0usize..12, 4usize..64, 4usize..64),
        out_wh in (8usize..96, 8usize..96),
        split_pct in 0u32..101,
    ) {
        let (rx, ry, rw, rh) = roi_xywh;
        let (out_w, out_h) = out_wh;
        let src = frame(width, height, seed);
        // rx/ry < 12 < width/height, so the clamped ROI is never empty
        let roi = Roi { x: rx, y: ry, width: rw, height: rh }
            .clamp_to(width, height);
        let cfg = ZoomConfig {
            out_width: out_w,
            out_height: out_h,
        };
        let mut out_fast = ImageU16::new(out_w, out_h);
        let mut out_ref = ImageU16::new(out_w, out_h);
        // split the output into two bands sharing one scratch, as the
        // executor does, against a single-band reference
        let mid = (out_h * split_pct as usize) / 100;
        let mut scratch = ZoomScratch::new();
        zoom_band_with(&src, roi, &cfg, &mut out_fast, 0, mid, &mut scratch);
        zoom_band_with(&src, roi, &cfg, &mut out_fast, mid, out_h, &mut scratch);
        zoom_band_reference(&src, roi, &cfg, &mut out_ref, 0, out_h);
        assert_rows_identical(&out_fast, &out_ref)?;
    }

    /// The SIMD windowed-argmax guide-wire DP is bit-identical to the
    /// scalar reference — same path, tie-breaks, mean response and DP
    /// cell count — for arbitrary ridge maps and corridor geometry.
    #[test]
    fn gw_extract_matches_reference(
        width in 48usize..96,
        height in 48usize..96,
        seed in 0u64..u64::MAX,
        half_width in 1usize..16,
        max_kink in 1usize..4,
        a_xy in (4u32..20, 4u32..20),
        b_xy in (28u32..44, 28u32..44),
    ) {
        let (ax, ay) = a_xy;
        let (bx, by) = b_xy;
        let src = frame(width, height, seed);
        let ridgeness: ImageF32 =
            Image::from_fn(width, height, |x, y| src.get(x, y) as f32 / 16.0);
        let marker = |x: u32, y: u32| Marker {
            x: x as f64,
            y: y as f64,
            strength: 1.0,
            scale: 2.0,
        };
        let couple = Couple {
            a: marker(ax, ay),
            b: marker(bx, by),
            score: 0.0,
        };
        let cfg = GwConfig {
            corridor_half_width: half_width,
            max_kink,
            ..GwConfig::default()
        };
        let fast = gw_extract_with(&ridgeness, &couple, &cfg, &mut GwScratch::new());
        let reference = gw_extract_reference(&ridgeness, &couple, &cfg);
        prop_assert_eq!(fast.wire_found, reference.wire_found);
        prop_assert_eq!(fast.mean_response.to_bits(), reference.mean_response.to_bits());
        prop_assert_eq!(fast.cells_evaluated, reference.cells_evaluated);
        prop_assert_eq!(fast.path.len(), reference.path.len());
        for (f, r) in fast.path.iter().zip(&reference.path) {
            prop_assert_eq!(f.0.to_bits(), r.0.to_bits());
            prop_assert_eq!(f.1.to_bits(), r.1.to_bits());
        }
    }
}

/// Pinned shape: a region escaping the frame on two sides under a
/// non-trivial transform, so the accumulate path mixes interior fast-path
/// samples with border-clamped and out-of-frame ones in the same rows.
#[test]
fn enh_mixed_interior_and_clamped_regression() {
    let src = frame(40, 32, 7);
    let transform = RigidTransform {
        theta: 0.3,
        cx: 20.0,
        cy: 16.0,
        tx: 5.0,
        ty: -3.0,
    };
    let region = Roi {
        x: 24,
        y: 20,
        width: 40,
        height: 32,
    };
    let mut fast = EnhState::new(40, 32);
    let mut reference = EnhState::new(40, 32);
    fast.accumulate(&src, &transform, region, 1.0);
    reference.accumulate_reference(&src, &transform, region, 1.0);
    let roi = region.clamp_to(40, 32);
    let mut out_fast = ImageU16::new(roi.width, roi.height);
    let mut out_ref = ImageU16::new(roi.width, roi.height);
    fast.readout_into(roi, 1.3, &mut out_fast);
    reference.readout_into_reference(roi, 1.3, &mut out_ref);
    for y in 0..out_fast.height() {
        assert_eq!(out_fast.row(y), out_ref.row(y), "row {y}");
    }
}

/// Pinned shape: extreme downscale plus extreme upscale in one config —
/// the row cache sees both all-distinct and heavily-repeated source rows.
#[test]
fn zoom_extreme_scale_regression() {
    let src = frame(60, 44, 11);
    for (out_w, out_h) in [(7usize, 5usize), (150, 131)] {
        let cfg = ZoomConfig {
            out_width: out_w,
            out_height: out_h,
        };
        let roi = Roi {
            x: 3,
            y: 2,
            width: 51,
            height: 39,
        };
        let mut out_fast = ImageU16::new(out_w, out_h);
        let mut out_ref = ImageU16::new(out_w, out_h);
        let mut scratch = ZoomScratch::new();
        zoom_band_with(&src, roi, &cfg, &mut out_fast, 0, out_h, &mut scratch);
        zoom_band_reference(&src, roi, &cfg, &mut out_ref, 0, out_h);
        for y in 0..out_h {
            assert_eq!(out_fast.row(y), out_ref.row(y), "row {y}");
        }
    }
}
