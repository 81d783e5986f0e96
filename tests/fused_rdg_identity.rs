//! Property tests pinning the fused, tiled, SIMD RDG kernel to the
//! unfused three-pass oracle: for **any** frame content, frame geometry,
//! ROI, stripe count and fine-scale switch state, the kernel's outputs
//! (`filtered` and `ridgeness`) must be **bit-identical** to
//! `rdg_roi_reference`. This is the contract that lets the performance
//! work ride under every existing RDG test. MKX EXT runs the same sweep
//! with the blob response and is held to `mkx_extract_reference` the same
//! way, candidate for candidate.
//!
//! The vendored offline proptest does not replay regression files, so one
//! historical shrink is pinned as the explicit unit test at the bottom.

use proptest::prelude::*;
use proptest::TestCaseError;
use triple_c::imaging::image::{Image, ImageU16, Roi};
use triple_c::imaging::markers::{mkx_extract, mkx_extract_reference, MkxBuffers, MkxConfig};
use triple_c::imaging::parallel::{StripeFault, StripePool};
use triple_c::imaging::ridge::{rdg_banded, rdg_roi, rdg_roi_reference, RdgBuffers, RdgConfig};

/// Deterministic pseudo-random frame: ridges, blobs and noise from a
/// 64-bit LCG so proptest only has to shrink the seed and geometry.
fn frame(width: usize, height: usize, seed: u64) -> ImageU16 {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as u32
    };
    let cx = (next() as usize % width) as f32;
    let angle = (next() % 628) as f32 / 100.0;
    let (s, c) = angle.sin_cos();
    Image::from_fn(width, height, |x, y| {
        let (xf, yf) = (x as f32, y as f32);
        // dark diagonal ridge + dark blob, over a noisy bright background
        let d_ridge = ((xf - cx) * c + yf * s).abs();
        let d_blob = ((xf - cx).powi(2) + (yf - height as f32 / 2.0).powi(2)).sqrt();
        let noise = (next() % 97) as f32;
        let v = 2400.0
            - 900.0 * (-d_ridge * d_ridge / 3.0).exp()
            - 700.0 * (-d_blob * d_blob / 16.0).exp()
            + noise;
        v.max(0.0) as u16
    })
}

fn config(fine_enabled: bool) -> RdgConfig {
    RdgConfig {
        fine_enabled,
        ..RdgConfig::default()
    }
}

/// Asserts bit-identity of the two output images (u16 equality for
/// `filtered`, `to_bits` equality for `ridgeness` so `-0.0` / NaN drift
/// cannot hide). The segment/pixel counters are checked separately
/// because a striped call sums them over its bands by design.
fn assert_images_identical(
    fused: &triple_c::imaging::ridge::RdgOutput,
    reference: &triple_c::imaging::ridge::RdgOutput,
) -> Result<(), TestCaseError> {
    let (w, h) = fused.filtered.dims();
    prop_assert_eq!(reference.filtered.dims(), (w, h));
    for y in 0..h {
        let (ff, rf) = (fused.filtered.row(y), reference.filtered.row(y));
        let (fr, rr) = (fused.ridgeness.row(y), reference.ridgeness.row(y));
        for x in 0..w {
            prop_assert!(ff[x] == rf[x], "filtered differs at ({x}, {y})");
            prop_assert!(
                fr[x].to_bits() == rr[x].to_bits(),
                "ridgeness bits differ at ({x}, {y}): {} vs {}",
                fr[x],
                rr[x]
            );
        }
    }
    Ok(())
}

fn check_roi_identity(
    width: usize,
    height: usize,
    seed: u64,
    roi: Roi,
    fine_enabled: bool,
) -> Result<(), TestCaseError> {
    let src = frame(width, height, seed);
    let fused = rdg_roi(
        &src,
        roi,
        &config(fine_enabled),
        &mut RdgBuffers::new(width, height),
    );
    let reference = rdg_roi_reference(
        &src,
        roi,
        &config(fine_enabled),
        &mut RdgBuffers::new(width, height),
    );
    assert_images_identical(&fused, &reference)?;
    // Both trace the whole ROI as one band over the same response map, so
    // the counters must agree exactly too.
    prop_assert_eq!(fused.ridge_pixels, reference.ridge_pixels);
    prop_assert_eq!(fused.segments, reference.segments);
    Ok(())
}

proptest! {
    /// Fused full-frame RDG is bit-identical to the unfused oracle for
    /// arbitrary frame content and geometry, fine scales on or off.
    #[test]
    fn fused_full_frame_matches_reference(
        width in 33usize..96,
        height in 33usize..96,
        seed in 0u64..u64::MAX,
        fine_enabled in any::<bool>(),
    ) {
        let roi = Roi { x: 0, y: 0, width, height };
        check_roi_identity(width, height, seed, roi, fine_enabled)?;
    }

    /// Fused ROI processing (boundary clamps, halo handling, untouched
    /// outside region) is bit-identical to the unfused oracle for
    /// arbitrary ROIs, including degenerate and frame-escaping ones.
    #[test]
    fn fused_roi_matches_reference(
        width in 48usize..96,
        height in 48usize..96,
        seed in 0u64..u64::MAX,
        rx in 0usize..64,
        ry in 0usize..64,
        rw in 1usize..96,
        rh in 1usize..96,
        fine_enabled in any::<bool>(),
    ) {
        let roi = Roi { x: rx, y: ry, width: rw, height: rh };
        check_roi_identity(width, height, seed, roi, fine_enabled)?;
    }

    /// Striping changes no pixel: for arbitrary ROIs (frame-escaping and
    /// degenerate ones included — the executor stripes `RDG_ROI` and GW
    /// EXT's ridge pass) every stripe count is bit-identical to the serial
    /// oracle, on one buffer set reused across stripe counts. The trace
    /// counters are summed over the bands, each traced inside its own
    /// rows with the global thresholds (`ridge::tests` re-traces the bands
    /// independently and pins the exact sums): one band counts what the
    /// serial trace counts; cutting the ROI can only lose weak pixels
    /// linked across a cut and only split segments, never lose one.
    #[test]
    fn fused_striped_matches_serial_reference(
        width in 48usize..80,
        height in 48usize..80,
        seed in 0u64..u64::MAX,
        rx in 0usize..64,
        ry in 0usize..64,
        rw in 1usize..96,
        rh in 1usize..96,
        fine_enabled in any::<bool>(),
    ) {
        let src = frame(width, height, seed);
        let roi = Roi { x: rx, y: ry, width: rw, height: rh };
        let cfg = config(fine_enabled);
        let reference = rdg_roi_reference(&src, roi, &cfg, &mut RdgBuffers::new(width, height));
        let pool = StripePool::new(2);
        let mut bufs = RdgBuffers::new(width, height);
        for stripes in [1usize, 2, 4, 7] {
            let fused = rdg_banded(&pool, &src, roi, &cfg, stripes, StripeFault::default(), &mut bufs)
                .expect("an unfaulted band job panicked");
            assert_images_identical(&fused, &reference)?;
            let bands = roi.clamp_to(width, height).stripes(stripes).len();
            prop_assert_eq!(bufs.times().band_ms.len(), bands);
            if bands <= 1 {
                prop_assert_eq!(fused.ridge_pixels, reference.ridge_pixels);
                prop_assert_eq!(fused.segments, reference.segments);
            } else {
                prop_assert!(
                    fused.ridge_pixels <= reference.ridge_pixels,
                    "{stripes} stripes traced {} pixels, serial {}",
                    fused.ridge_pixels,
                    reference.ridge_pixels
                );
                prop_assert!(
                    fused.segments >= reference.segments,
                    "{stripes} stripes traced {} segments, serial {}",
                    fused.segments,
                    reference.segments
                );
                // every serial segment keeps a strong pixel in some band
                prop_assert_eq!(fused.ridge_pixels == 0, reference.ridge_pixels == 0);
                prop_assert_eq!(fused.segments == 0, reference.segments == 0);
            }
            bufs.recycle(fused);
        }
    }

    /// Fused marker extraction returns the oracle's candidates bit for bit:
    /// arbitrary content, geometry and ROIs (frame-escaping, degenerate and
    /// one-row ones included), one to three scales in either order, over
    /// two rounds on buffers that a call on a different ROI used first —
    /// what that call left in the planes must not show.
    #[test]
    fn fused_mkx_matches_reference(
        width in 16usize..96,
        height in 16usize..96,
        seed in 0u64..u64::MAX,
        rois in prop::collection::vec((0usize..64, 0usize..64, 1usize..112, 1usize..112), 3..4),
        one_row in any::<bool>(),
        n_scales in 1usize..4,
        coarse_first in any::<bool>(),
    ) {
        let mut scales = vec![1.0f32, 1.5, 2.5];
        scales.truncate(n_scales);
        if coarse_first {
            scales.reverse();
        }
        let cfg = MkxConfig { scales, ..MkxConfig::default() };
        let mut rois: Vec<Roi> = rois
            .into_iter()
            .map(|(x, y, width, height)| Roi { x, y, width, height })
            .collect();
        if one_row {
            rois[2].height = 1;
        }
        let mut fused_bufs = MkxBuffers::new(width, height);
        let mut oracle_bufs = MkxBuffers::new(width, height);
        mkx_extract(&frame(width, height, !seed), rois[0], &cfg, &mut fused_bufs);
        for (round, &roi) in rois[1..].iter().enumerate() {
            let src = frame(width, height, seed.wrapping_add(round as u64));
            let fused = mkx_extract(&src, roi, &cfg, &mut fused_bufs);
            let oracle = mkx_extract_reference(&src, roi, &cfg, &mut oracle_bufs);
            prop_assert!(
                fused.raw_maxima == oracle.raw_maxima
                    && fused.candidates.len() == oracle.candidates.len(),
                "round {round}: fused {} maxima, {} candidates; oracle {}, {}",
                fused.raw_maxima,
                fused.candidates.len(),
                oracle.raw_maxima,
                oracle.candidates.len()
            );
            for (f, o) in fused.candidates.iter().zip(&oracle.candidates) {
                prop_assert!(
                    f.x.to_bits() == o.x.to_bits()
                        && f.y.to_bits() == o.y.to_bits()
                        && f.strength.to_bits() == o.strength.to_bits()
                        && f.scale.to_bits() == o.scale.to_bits(),
                    "round {round}: fused {f:?}, oracle {o:?}"
                );
            }
        }
    }
}

/// Pinned shrink of `fused_roi_matches_reference`: an ROI whose halo
/// clamps against both the top and left frame borders while its right
/// edge escapes the frame — the case that exercises every clamp in the
/// fused row/column stages at once. Kept explicit because the vendored
/// offline proptest does not replay regression files.
#[test]
fn roi_clamped_against_two_borders_regression() {
    let roi = Roi {
        x: 1,
        y: 0,
        width: 95,
        height: 3,
    };
    check_roi_identity(48, 48, 0, roi, true).expect("fused/reference outputs must be identical");
}
