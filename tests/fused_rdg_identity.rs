//! Property tests pinning the fused, tiled, SIMD RDG kernel to the
//! unfused three-pass oracle: for **any** frame content, frame geometry,
//! ROI, stripe count and fine-scale switch state, the kernel's outputs
//! (`filtered` and `ridgeness`) must be **bit-identical** to
//! `rdg_roi_reference`. This is the contract that lets the performance
//! work ride under every existing RDG test. MKX EXT runs the same sweep
//! with the blob response and is held to `mkx_extract_reference` the same
//! way, candidate for candidate. GW EXT samples the accumulator RDG left
//! behind and sweeps only what is missing over its corridor's box; it is
//! held to the composition it replaced (`rdg_roi` over the new ROI, then
//! `gw_extract_with` on that call's `ridgeness`), and one executor-level
//! case pins `process_frame`'s outputs to digests taken before the change.
//!
//! The vendored offline proptest does not replay regression files, so one
//! historical shrink is pinned as the explicit unit test at the bottom.

use proptest::prelude::*;
use proptest::TestCaseError;
use triple_c::imaging::couples::Couple;
use triple_c::imaging::guidewire::{corridor_box, gw_extract_with, GwConfig, GwScratch};
use triple_c::imaging::image::{Image, ImageU16, Roi};
use triple_c::imaging::markers::{
    mkx_banded, mkx_extract, mkx_extract_reference, Marker, MkxBuffers, MkxConfig, MkxOutput,
};
use triple_c::imaging::parallel::{StripeFault, StripePool};
use triple_c::imaging::ridge::{
    rdg_banded, rdg_roi, rdg_roi_reference, ridge_response_banded, RdgBuffers, RdgConfig,
};
use triple_c::imaging::roi_est::{estimate_roi, RoiEstConfig};
use triple_c::pipeline::app::{AppConfig, AppState};
use triple_c::pipeline::executor::{process_frame, ExecutionPolicy};
use triple_c::triplec::scenario::ScenarioScript;
use triple_c::triplec::Task;
use triple_c::xray::{NoiseConfig, SequenceConfig, SequenceGenerator};

/// Deterministic pseudo-random frame: ridges, blobs and noise from a
/// 64-bit LCG so proptest only has to shrink the seed and geometry. Odd
/// seeds lift the background to the top of the `u16` range, where some of
/// the ridge pixels RDG brightens saturate at 65535.
fn frame(width: usize, height: usize, seed: u64) -> ImageU16 {
    let background = if seed.is_multiple_of(2) {
        2400.0
    } else {
        65480.0
    };
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
        let v = background
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
    /// degenerate ones included — the executor stripes `RDG_ROI`) every
    /// stripe count is bit-identical to the serial oracle, on one buffer
    /// set reused across stripe counts. The trace
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
    /// ones of fewer rows than bands included), one to three scales in
    /// either order, over two rounds on buffers that a call on a different
    /// ROI used first — what that call left in the planes must not show.
    /// `mkx_banded` returns the same candidates and maxima at one to four
    /// stripes, one set of buffers serving every stripe count, each call
    /// after one on the other frame and ROI.
    #[test]
    fn fused_mkx_matches_reference(
        width in 16usize..96,
        height in 16usize..96,
        seed in 0u64..u64::MAX,
        rois in prop::collection::vec((0usize..64, 0usize..64, 1usize..112, 1usize..112), 3..4),
        short_rows in 0usize..4,
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
        if short_rows > 0 {
            rois[2].height = short_rows;
        }
        let pool = StripePool::new(2);
        let mut fused_bufs = MkxBuffers::new(width, height);
        let mut oracle_bufs = MkxBuffers::new(width, height);
        let mut banded_bufs = MkxBuffers::new(width, height);
        let other = frame(width, height, !seed);
        mkx_extract(&other, rois[0], &cfg, &mut fused_bufs);
        for (round, &roi) in rois[1..].iter().enumerate() {
            let src = frame(width, height, seed.wrapping_add(round as u64));
            let oracle = mkx_extract_reference(&src, roi, &cfg, &mut oracle_bufs);
            let fused = mkx_extract(&src, roi, &cfg, &mut fused_bufs);
            same_markers(&fused, &oracle, &format!("round {round}, fused"))?;
            for stripes in 1..=4 {
                mkx_extract(&other, rois[0], &cfg, &mut banded_bufs);
                let banded = mkx_banded(
                    &pool, &src, roi, &cfg, stripes, StripeFault::default(), &mut banded_bufs,
                )
                .expect("an unfaulted band job panicked");
                same_markers(&banded, &oracle, &format!("round {round}, {stripes} stripes"))?;
            }
        }
    }
}

/// `got` holds `want`'s raw-maxima count and its candidates, bit for bit.
fn same_markers(got: &MkxOutput, want: &MkxOutput, what: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        got.raw_maxima == want.raw_maxima && got.candidates.len() == want.candidates.len(),
        "{what}: {} maxima, {} candidates; oracle {}, {}",
        got.raw_maxima,
        got.candidates.len(),
        want.raw_maxima,
        want.candidates.len()
    );
    for (g, w) in got.candidates.iter().zip(&want.candidates) {
        prop_assert!(
            g.x.to_bits() == w.x.to_bits()
                && g.y.to_bits() == w.y.to_bits()
                && g.strength.to_bits() == w.strength.to_bits()
                && g.scale.to_bits() == w.scale.to_bits(),
            "{what}: {g:?}, oracle {w:?}"
        );
    }
    Ok(())
}

/// One placement of GW EXT on a frame: where the markers are, what ROI
/// EST made of them, what RDG worked on.
#[derive(Debug, Clone, Copy)]
struct GwCase {
    couple: Couple,
    /// The new ROI — GW's response is defined inside it, `0.0` outside.
    roi: Roi,
    /// The ROI this frame's RDG call (if any) ran on.
    work_roi: Roi,
    half_width: usize,
    stripes: usize,
}

/// The switch state GW EXT runs under on one frame.
#[derive(Debug, Clone, Copy)]
struct Switches {
    /// Switch 1: this frame's RDG call ran.
    rdg_on: bool,
    /// RDG's fine scales (`AppState::fine_active`).
    fine_active: bool,
    /// GW's fine scales (`AppConfig::rdg.fine_enabled`).
    fine_enabled: bool,
}

fn marker(x: f64, y: f64) -> Marker {
    Marker {
        x,
        y,
        strength: 1.0,
        scale: 2.0,
    }
}

/// GW EXT on `src` the way the executor runs it — the RDG call or not
/// (switch 1), then the corridor-box sweep and the path search on the
/// accumulator — against the composition it replaced, scale lists of the
/// two calls as the executor derives them. `bufs` carries whatever the
/// frames before left in it; with switch 1 off that is a whole RDG call on
/// `previous`, a frame on which GW EXT did not run.
fn check_gw_identity(
    pool: &StripePool,
    (src, previous): (&ImageU16, &ImageU16),
    case: GwCase,
    switches: Switches,
    bufs: &mut RdgBuffers,
    oracle_bufs: &mut RdgBuffers,
) -> Result<(), TestCaseError> {
    let Switches {
        rdg_on,
        fine_active,
        fine_enabled,
    } = switches;
    let (w, h) = src.dims();
    let gw_rdg_cfg = config(fine_enabled);
    let gw_cfg = GwConfig {
        corridor_half_width: case.half_width,
        ..GwConfig::default()
    };
    let rdg_cfg = config(fine_active);
    let rdg_src = if rdg_on { src } else { previous };
    let out = rdg_banded(
        pool,
        rdg_src,
        case.work_roi,
        &rdg_cfg,
        case.stripes,
        StripeFault::default(),
        bufs,
    )
    .expect("an unfaulted band job panicked");
    bufs.recycle(out);
    let window = corridor_box(&case.couple, &gw_cfg, w, h);
    ridge_response_banded(
        pool,
        src,
        window,
        case.roi,
        &gw_rdg_cfg,
        rdg_on,
        case.stripes,
        StripeFault::default(),
        bufs,
    )
    .expect("an unfaulted band job panicked");
    let got = gw_extract_with(
        bufs.response(),
        &case.couple,
        &gw_cfg,
        &mut GwScratch::new(),
    );

    let oracle = rdg_roi(src, case.roi, &gw_rdg_cfg, oracle_bufs);
    let want = gw_extract_with(
        &oracle.ridgeness,
        &case.couple,
        &gw_cfg,
        &mut GwScratch::new(),
    );
    oracle_bufs.recycle(oracle);

    let what = format!("{switches:?}, window {window}");
    prop_assert!(got.wire_found == want.wire_found, "wire_found ({what})");
    prop_assert!(
        got.mean_response.to_bits() == want.mean_response.to_bits(),
        "mean response {} vs {} ({what})",
        got.mean_response,
        want.mean_response
    );
    prop_assert!(
        got.cells_evaluated == want.cells_evaluated,
        "cells ({what})"
    );
    prop_assert!(got.path == want.path, "path ({what})");
    Ok(())
}

proptest! {
    /// GW EXT through RDG's accumulator returns what RDG-then-GW returned,
    /// bit for bit: arbitrary content, marker placements (against the
    /// frame corners too) and corridor widths; new ROIs that `max_size`
    /// caps so that corridor samples fall outside them; RDG work ROIs that
    /// hold the corridor box and ones it leaves; 1, 2 and 4 stripes. Every
    /// case runs all four `fine_active` × `fine_enabled` states — RDG's
    /// scale list a prefix of GW's, equal to it, longer than it — on two
    /// consecutive frames with switch 1 as drawn, on one buffer set, so
    /// each sweep starts on the accumulator some other state left; with
    /// switch 1 off, on one a whole RDG call on the other frame left.
    #[test]
    fn gw_through_the_accumulator_matches_rdg_then_gw(
        dims in (64usize..112, 64usize..112),
        seed in 0u64..u64::MAX,
        a in (0usize..8 * 112, 0usize..8 * 112, 0usize..4),
        d in (-8 * 44isize..8 * 44, -8 * 44isize..8 * 44),
        shape in (2usize..9, 0usize..3, 0usize..3),
        work in (any::<bool>(), 0usize..96, 0usize..96, 1usize..112, 1usize..112),
        switch_1 in (any::<bool>(), any::<bool>()),
    ) {
        let (width, height) = dims;
        let (half_width, cap, stripes) = shape;
        // marker coordinates in eighths of a pixel, integers included;
        // `snap` pulls the first marker into a frame corner
        let place = |v: usize, n: usize, snap: usize| {
            let v = (v % (8 * (n - 1) + 1)) as f64 / 8.0;
            match snap {
                2 => v % 6.0,
                3 => (n - 1) as f64 - v % 6.0,
                _ => v,
            }
        };
        let (ax, ay) = (place(a.0, width, a.2), place(a.1, height, a.2));
        let bx = (ax + d.0 as f64 / 8.0).clamp(0.0, (width - 1) as f64);
        let by = (ay + d.1 as f64 / 8.0).clamp(0.0, (height - 1) as f64);
        let couple = Couple { a: marker(ax, ay), b: marker(bx, by), score: 0.0 };
        let roi_cfg = RoiEstConfig {
            min_size: 16,
            max_size: [24, 40, 640][cap],
        };
        let roi = estimate_roi(&couple, 0.0, width, height, &roi_cfg);
        let (tracking, rx, ry, rw, rh) = work;
        let work_roi = if tracking {
            // what tracking gives RDG: last frame's ROI around the couple
            estimate_roi(&couple, 3.0, width, height, &RoiEstConfig::default())
        } else {
            Roi { x: rx, y: ry, width: rw, height: rh }.clamp_to(width, height)
        };
        let case = GwCase { couple, roi, work_roi, half_width, stripes: [1, 2, 4][stripes] };

        let pool = StripePool::new(2);
        let mut bufs = RdgBuffers::new(width, height);
        let mut oracle_bufs = RdgBuffers::new(width, height);
        let frames = [frame(width, height, seed), frame(width, height, !seed)];
        for fine_enabled in [true, false] {
            for fine_active in [false, true] {
                for (k, rdg_on) in [switch_1.0, switch_1.1].into_iter().enumerate() {
                    let (src, previous) = (&frames[k], &frames[1 - k]);
                    let switches = Switches { rdg_on, fine_active, fine_enabled };
                    check_gw_identity(
                        &pool, (src, previous), case, switches, &mut bufs, &mut oracle_bufs,
                    )?;
                }
            }
        }
    }
}

fn fnv1a(hash: &mut u64, bytes: impl IntoIterator<Item = u8>) {
    for b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Runs a 24-frame 160² sequence through `process_frame` and returns the
/// scenario trace, the number of frames GW EXT ran on and one FNV-1a
/// digest of every `FrameOutput` (scenario, ROIs, couple flag, display
/// pixels).
fn frame_output_digest(cfg: &AppConfig, policy: &ExecutionPolicy) -> (String, usize, u64) {
    let sequence = SequenceGenerator::new(SequenceConfig {
        width: 160,
        height: 160,
        frames: 24,
        seed: 52,
        noise: NoiseConfig {
            quantum_scale: 0.3,
            electronic_std: 2.0,
        },
        ..Default::default()
    });
    let mut state = AppState::new(160, 160);
    let (mut trace, mut gw_frames, mut hash) = (String::new(), 0, 0xcbf2_9ce4_8422_2325u64);
    for f in sequence {
        let out = process_frame(f.index, &f.image, &mut state, cfg, policy);
        trace.push((b'0' + out.scenario.id()) as char);
        gw_frames += usize::from(out.record.task_time(Task::GwExt).is_some());
        let roi = out
            .roi
            .map_or([usize::MAX; 4], |r| [r.x, r.y, r.width, r.height]);
        fnv1a(&mut hash, [out.scenario.id(), out.couple_found as u8]);
        fnv1a(
            &mut hash,
            roi.iter().flat_map(|v| (*v as u64).to_le_bytes()),
        );
        fnv1a(&mut hash, out.roi_kpixels.to_bits().to_le_bytes());
        match &out.display {
            Some(img) => fnv1a(
                &mut hash,
                img.as_slice().iter().flat_map(|p| p.to_le_bytes()),
            ),
            None => fnv1a(&mut hash, [0xff]),
        }
    }
    (trace, gw_frames, hash)
}

/// `process_frame` gives the outputs it gave when GW EXT ran a whole
/// second RDG call: the digests below were taken at the commit before GW
/// EXT moved onto the accumulator. Three configurations: the default one,
/// serial, where this content keeps RDG's fine scales on and GW EXT finds
/// every scale it wants already folded; one that keeps them off, as 1024²
/// content does, so GW EXT folds its last scale into RDG's accumulator on
/// every tracked frame; and one that thrashes all three switches under a
/// script with striped sweeps, a low fine-scale threshold and GW's own
/// fine scales off, so GW EXT meets accumulators the frame before left
/// (switch 1 off) and ones that hold a scale it must not have.
#[test]
fn process_frame_outputs_match_the_two_pass_digests() {
    let serial = ExecutionPolicy::default();
    let striped = ExecutionPolicy { stripes: 2 };
    let coarse_rdg = AppConfig {
        fine_probe_factor: 100.0,
        ..AppConfig::default()
    };
    let mut scripted = AppConfig {
        scenario_script: Some(ScenarioScript::thrash(&[7, 6, 3, 2], 1, 6)),
        fine_probe_factor: 0.6,
        ..AppConfig::default()
    };
    scripted.rdg.fine_enabled = false;
    let pinned = [
        (
            AppConfig::default(),
            serial,
            "177777777777777777777777",
            6649962765267220322u64,
        ),
        (
            coarse_rdg,
            serial,
            "177777777777777777777777",
            9146639700575032153,
        ),
        (
            scripted,
            striped,
            "763276327632763276327632",
            14067093627654074307,
        ),
    ];
    for (case, (cfg, policy, pinned_trace, pinned_hash)) in pinned.iter().enumerate() {
        let (trace, gw_frames, hash) = frame_output_digest(cfg, policy);
        assert!(
            gw_frames >= 12,
            "case {case}: GW EXT ran on {gw_frames} frames only"
        );
        assert_eq!(
            (trace.as_str(), hash),
            (*pinned_trace, *pinned_hash),
            "case {case}"
        );
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
