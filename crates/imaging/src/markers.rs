//! MKX EXT — marker extraction.
//!
//! Selects punctual dark zones contrasting on a brighter background as
//! candidate balloon markers (Section 3 of the paper). Runs on the
//! ridge-suppressed frame when RDG is active, or directly on the input
//! frame when the RDG switch is off — the two cases have different input
//! buffer requirements (Table 1).

//!
//! The blob response is the fused Hessian sweep RDG runs, and it is
//! band-safe in the same way: [`mkx_banded`] runs it as one job per row
//! band of the ROI. The peak, the maxima scan and the pruning read the
//! whole ROI and stay on the calling thread.

use std::time::Instant;

use crate::fused::{fused_scale, BlobMax, FusedScratch};
use crate::hessian::{blob_response, hessian_at_scale, KernelCache, ReferenceScratch};
use crate::image::{ImageF32, ImageU16, Roi};
use crate::parallel::{
    ms_since, run_bands, BandTimes, Bands, Layout, PoolError, StripeFault, StripePool,
};
use crate::simd::{F32x8, LANES};

/// A candidate balloon marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Marker {
    /// Sub-pixel x position.
    pub x: f64,
    /// Sub-pixel y position.
    pub y: f64,
    /// Blob-response strength (higher = darker, more punctual).
    pub strength: f32,
    /// Detection scale (sigma, pixels).
    pub scale: f32,
}

impl Marker {
    /// Euclidean distance to another marker.
    pub fn distance(&self, other: &Marker) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }
}

/// Configuration of the marker-extraction task.
#[derive(Debug, Clone)]
pub struct MkxConfig {
    /// Blob scales matching the expected marker radius.
    pub scales: Vec<f32>,
    /// Minimum separation between reported candidates, pixels.
    pub min_separation: f64,
    /// Maximum number of candidates reported (strongest first).
    pub max_candidates: usize,
}

impl Default for MkxConfig {
    fn default() -> Self {
        Self {
            scales: vec![1.5, 2.5],
            min_separation: 6.0,
            max_candidates: 32,
        }
    }
}

/// Reusable working memory of the MKX task: three frame-sized planes (the
/// "intermediate" storage of Table 1) plus the fused sweep's width-linear
/// rings, one per row band, and the cached kernel taps.
#[derive(Debug)]
pub struct MkxBuffers {
    /// The input frame converted to f32.
    src_f32: ImageF32,
    /// The multi-scale blob-response maximum.
    acc: ImageF32,
    /// Per-pixel winning scale of that maximum.
    scale: ImageF32,
    /// The fused sweep's row-filtered tile rings, one per band, grown to
    /// the largest stripe count seen.
    rings: Vec<FusedScratch>,
    /// Per-sigma `(G, G', G'')` cache shared by all bands.
    kernels: KernelCache,
    /// Full-frame intermediates of the oracle, `None` until
    /// [`mkx_extract_reference`] runs.
    reference: Option<Box<ReferenceScratch>>,
    /// Breakdown of the most recent call.
    times: BandTimes,
}

impl MkxBuffers {
    /// Allocates buffers for `width x height` frames.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            src_f32: ImageF32::new(width, height),
            acc: ImageF32::new(width, height),
            scale: ImageF32::new(width, height),
            rings: Vec::new(),
            kernels: KernelCache::new(),
            reference: None,
            times: BandTimes::default(),
        }
    }

    /// Total intermediate storage in bytes (Table 1 accounting), including
    /// — if the oracle ever ran — its full-frame intermediates.
    pub fn byte_size(&self) -> usize {
        self.src_f32.byte_size()
            + self.acc.byte_size()
            + self.scale.byte_size()
            + self.rings.iter().map(|r| r.byte_size()).sum::<usize>()
            + self.kernels.byte_size()
            + self.reference.as_ref().map_or(0, |r| r.byte_size())
    }

    /// Readies the set for a new stream of the same geometry: keeps the
    /// three frame-sized planes and drops the band rings, the kernel cache,
    /// the oracle's intermediates and the times, so its
    /// [`MkxBuffers::byte_size`] after any call is a new set's.
    pub fn reclaim(&mut self) {
        self.rings = Vec::new();
        self.kernels = KernelCache::new();
        self.reference = None;
        self.times = BandTimes::default();
    }

    /// Where the time of the most recent successful call went: the blob
    /// sweep in `band_ms`, everything else in `serial_ms`.
    pub fn times(&self) -> &BandTimes {
        &self.times
    }
}

/// Result of marker extraction.
#[derive(Debug, Clone)]
pub struct MkxOutput {
    /// Candidate markers, strongest first.
    pub candidates: Vec<Marker>,
    /// Number of raw local maxima before separation/count pruning
    /// (content-dependent load proxy: noisy or busy frames produce more).
    pub raw_maxima: usize,
}

/// Extracts candidate markers inside `roi`: the multi-scale blob response
/// by the fused Hessian sweep (one pass over the source per scale), then
/// its local maxima above a threshold relative to the ROI's peak, pruned
/// strongest first. A maximum needs its whole 3×3 neighbourhood inside the
/// ROI, so the result depends on nothing an earlier call left in `bufs`.
/// One band, on the calling thread: [`mkx_banded`] at one stripe.
pub fn mkx_extract(src: &ImageU16, roi: Roi, cfg: &MkxConfig, bufs: &mut MkxBuffers) -> MkxOutput {
    mkx_kernel(src, roi, cfg, bufs, Bands::One { oracle: false })
        .expect("a lone inline band has no dispatch to fail")
}

/// [`mkx_extract`] with the blob sweep split into `stripes` row bands of
/// `roi`, each with its own ring. More than one band makes the sweep one
/// `pool` job per band; one band runs inline. The candidates and
/// `raw_maxima` are bit-identical to [`mkx_extract`] for every stripe
/// count, and per-band times land in [`MkxBuffers::times`].
///
/// `fault` injects deterministic failures into the banded dispatch
/// (testing only), as for [`crate::ridge::rdg_banded`]: the call returns
/// the [`PoolError`], and a clean retry is bit-identical to an unfaulted
/// call. A call with a single band dispatches nothing and cannot fail.
pub fn mkx_banded(
    pool: &StripePool,
    src: &ImageU16,
    roi: Roi,
    cfg: &MkxConfig,
    stripes: usize,
    fault: StripeFault,
    bufs: &mut MkxBuffers,
) -> Result<MkxOutput, PoolError> {
    let bands = Bands::Striped {
        pool,
        stripes,
        fault,
    };
    mkx_kernel(src, roi, cfg, bufs, bands)
}

/// [`mkx_extract`] with the response computed by the original unfused
/// engine: three `convolve_rows` + three `convolve_cols` passes per scale
/// through full-frame intermediates, then a scalar [`blob_response`] pass.
/// Bit-identical to the fused sweep by contract; kept as the oracle tests
/// diff it against.
pub fn mkx_extract_reference(
    src: &ImageU16,
    roi: Roi,
    cfg: &MkxConfig,
    bufs: &mut MkxBuffers,
) -> MkxOutput {
    mkx_kernel(src, roi, cfg, bufs, Bands::One { oracle: true })
        .expect("a lone inline band has no dispatch to fail")
}

/// Response threshold as a fraction of the maximum response.
const THRESHOLD_REL: f32 = 0.25;

/// The MKX kernel: every public entry point above is this function.
fn mkx_kernel(
    src: &ImageU16,
    roi: Roi,
    cfg: &MkxConfig,
    bufs: &mut MkxBuffers,
    bands: Bands<'_>,
) -> Result<MkxOutput, PoolError> {
    assert_eq!(
        src.dims(),
        bufs.src_f32.dims(),
        "buffer geometry must match the frame"
    );
    assert!(!cfg.scales.is_empty(), "at least one scale required");
    let (w, h) = src.dims();
    let roi = roi.clamp_to(w, h);
    let MkxBuffers {
        src_f32,
        acc,
        scale,
        rings,
        kernels,
        reference,
        times,
    } = bufs;
    times.serial_ms = 0.0;
    times.band_ms.clear();
    if roi.is_empty() {
        return Ok(MkxOutput {
            candidates: Vec::new(),
            raw_maxima: 0,
        });
    }
    let Layout {
        pool,
        parts,
        fault,
        oracle,
    } = bands.layout(roi)?;

    let t0 = Instant::now();
    let halo = cfg
        .scales
        .iter()
        .map(|&s| (3.0 * s).ceil() as usize)
        .max()
        .unwrap_or(0);
    let conv_roi = roi.inflate(halo, w, h);
    for y in conv_roi.y..conv_roi.bottom() {
        let s = &src.row(y)[conv_roi.x..conv_roi.right()];
        let d = &mut src_f32.row_mut(y)[conv_roi.x..conv_roi.right()];
        for (d, &s) in d.iter_mut().zip(s) {
            *d = s as f32;
        }
    }

    // Strongest scale per pixel, remembering which scale won.
    if oracle {
        let rs = reference.get_or_insert_with(|| Box::new(ReferenceScratch::new(w, h)));
        let span = roi.x..roi.right();
        for y in roi.y..roi.bottom() {
            acc.row_mut(y)[span.clone()].fill(0.0);
            scale.row_mut(y)[span.clone()].fill(cfg.scales[0]);
        }
        for &sigma in &cfg.scales {
            hessian_at_scale(src_f32, &mut rs.hessian, &mut rs.conv, roi, sigma);
            for y in roi.y..roi.bottom() {
                let ixx = &rs.hessian.ixx.row(y)[span.clone()];
                let iyy = &rs.hessian.iyy.row(y)[span.clone()];
                let ixy = &rs.hessian.ixy.row(y)[span.clone()];
                let acc = &mut acc.row_mut(y)[span.clone()];
                let scale = &mut scale.row_mut(y)[span.clone()];
                for i in 0..acc.len() {
                    let r = blob_response(ixx[i], iyy[i], ixy[i]);
                    if r > acc[i] {
                        acc[i] = r;
                        scale[i] = sigma;
                    }
                }
            }
        }
        times.serial_ms = ms_since(t0);
    } else {
        // The first scale overwrites both planes (bit-identical to the
        // oracle's fills + merge, without the fill passes); the remaining
        // scales fold in on a strict `r > acc`. Each band sweeps its rows
        // of the shared planes with its own ring.
        if rings.len() < parts.len() {
            rings.resize_with(parts.len(), FusedScratch::new);
        }
        times.band_ms.resize(parts.len(), 0.0);
        let kernels = kernels.get_all(&cfg.scales);
        let (kernels, src_f32) = (&kernels, &*src_f32);
        let jobs = parts
            .iter()
            .zip(acc.row_bands(&parts).zip(scale.row_bands(&parts)))
            .zip(rings.iter_mut().zip(&mut times.band_ms))
            .enumerate()
            .map(|(i, ((&band, (acc, scale)), (ring, ms)))| {
                move || {
                    if i < fault.panic_jobs {
                        // injected fault: dies at job start, before any write
                        panic!("injected stripe-worker fault (job {i})");
                    }
                    let t0 = Instant::now();
                    for (k, (&sigma, &(g, d1, d2))) in cfg.scales.iter().zip(kernels).enumerate() {
                        let out = BlobMax {
                            acc: &mut *acc,
                            scale: &mut *scale,
                            sigma,
                        };
                        if k == 0 {
                            fused_scale::<_, true>(src_f32, out, ring, g, d1, d2, band);
                        } else {
                            fused_scale::<_, false>(src_f32, out, ring, g, d1, d2, band);
                        }
                    }
                    *ms = ms_since(t0);
                }
            });
        times.serial_ms = ms_since(t0);
        run_bands(pool, parts.len(), jobs)?;
    }
    let t0 = Instant::now();

    // local maxima above a relative threshold
    let peak = peak_response(acc, roi);
    // Absolute floor guards against numerical residue on flat frames, where
    // every pixel would otherwise tie as a "local maximum".
    let threshold = (THRESHOLD_REL * peak).max(1e-3);
    let mut raw: Vec<Marker> = Vec::new();
    if peak > 1e-3 {
        // One pixel in from the ROI's edges: the 3×3 test and the sub-pixel
        // fit read only responses this call wrote.
        let (x0, x1) = (roi.x + 1, roi.right() - 1);
        for y in roi.y + 1..roi.bottom() - 1 {
            let (up, row, down) = (acc.row(y - 1), acc.row(y), acc.row(y + 1));
            for x in x0..x1 {
                let v = row[x];
                if v <= threshold {
                    continue;
                }
                let around = [&up[x - 1..x + 2], &row[x - 1..x + 2], &down[x - 1..x + 2]];
                if around.iter().any(|r| r.iter().any(|&n| n > v)) {
                    continue;
                }
                raw.push(Marker {
                    x: x as f64 + subpixel_offset(row[x - 1], v, row[x + 1]),
                    y: y as f64 + subpixel_offset(up[x], v, down[x]),
                    strength: v,
                    scale: scale.get(x, y),
                });
            }
        }
    }
    let raw_maxima = raw.len();

    // greedy separation pruning, strongest first
    raw.sort_by(|a, b| b.strength.total_cmp(&a.strength));
    let mut candidates: Vec<Marker> = Vec::new();
    for m in raw {
        if candidates.len() >= cfg.max_candidates {
            break;
        }
        if candidates
            .iter()
            .all(|c| c.distance(&m) >= cfg.min_separation)
        {
            candidates.push(m);
        }
    }

    times.serial_ms += ms_since(t0);
    Ok(MkxOutput {
        candidates,
        raw_maxima,
    })
}

/// Largest response inside `roi`, at least `0.0`. Eight running maxima, one
/// per lane, folded at the end: the response holds no NaN and no `-0.0`, so
/// the maximum does not depend on the order it is taken in, and a single
/// scalar `max` chain is one dependent compare per pixel.
fn peak_response(acc: &ImageF32, roi: Roi) -> f32 {
    let mut lanes = F32x8::splat(0.0);
    let mut peak = 0.0f32;
    for y in roi.y..roi.bottom() {
        let mut chunks = acc.row(y)[roi.x..roi.right()].chunks_exact(LANES);
        for c in &mut chunks {
            let v = F32x8::load(c);
            lanes = F32x8::select_gt(v, lanes, v, lanes);
        }
        for &v in chunks.remainder() {
            peak = peak.max(v);
        }
    }
    lanes.0.iter().fold(peak, |m, &v| m.max(v))
}

/// Parabolic sub-pixel offset of a local maximum `v` between its two
/// neighbours along one axis, in `[-0.5, 0.5]`.
fn subpixel_offset(lo: f32, v: f32, hi: f32) -> f64 {
    let (lo, v, hi) = (lo as f64, v as f64, hi as f64);
    let denom = lo - 2.0 * v + hi;
    if denom.abs() < 1e-12 {
        0.0
    } else {
        (0.5 * (lo - hi) / denom).clamp(-0.5, 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    fn frame_with_blobs(w: usize, h: usize, blobs: &[(f32, f32, f32)]) -> ImageU16 {
        Image::from_fn(w, h, |x, y| {
            let mut v = 2000.0f32;
            for &(cx, cy, depth) in blobs {
                let dx = x as f32 - cx;
                let dy = y as f32 - cy;
                v -= depth * (-(dx * dx + dy * dy) / 8.0).exp();
            }
            v.max(0.0) as u16
        })
    }

    /// A blob moved across a sub-frame ROI's left edge: buffers that ran a
    /// full-frame call first hold that call's responses just outside the
    /// ROI, fresh ones hold zeros there, and the candidates must not tell
    /// the two apart. (Scanning the ROI's edge pixels themselves, as this
    /// function once did, reports a flank "maximum" at x = 32 for the
    /// blobs centred at 30 and 31 on fresh buffers only.)
    #[test]
    fn result_does_not_depend_on_what_earlier_calls_left_in_the_buffers() {
        let cfg = MkxConfig::default();
        let roi = Roi::new(32, 8, 28, 48);
        for step in 0..24 {
            let cx = 26.0 + step as f32 * 0.5;
            let src = frame_with_blobs(64, 64, &[(cx, 30.0, 1100.0), (50.0, 40.0, 900.0)]);
            let fresh = mkx_extract(&src, roi, &cfg, &mut MkxBuffers::new(64, 64));
            let mut bufs = MkxBuffers::new(64, 64);
            mkx_extract(&src, src.full_roi(), &cfg, &mut bufs);
            let reused = mkx_extract(&src, roi, &cfg, &mut bufs);
            assert_eq!(fresh.raw_maxima, reused.raw_maxima, "blob at x = {cx}");
            assert_eq!(fresh.candidates, reused.candidates, "blob at x = {cx}");
            assert!(!fresh.candidates.is_empty(), "the second blob is inside");
            assert!(
                fresh.candidates.iter().all(|m| m.x >= 32.5),
                "a maximum at pixel 33 or beyond refines to 32.5 at the least: {:?}",
                fresh.candidates
            );
        }
    }

    #[test]
    fn lane_wise_peak_equals_the_scalar_max_chain() {
        let acc: ImageF32 = Image::from_fn(37, 9, |x, y| ((x * 29 + y * 13) % 53) as f32 * 0.75);
        for roi in [acc.full_roi(), Roi::new(3, 2, 21, 5), Roi::new(30, 0, 7, 9)] {
            let mut chain = 0.0f32;
            for y in roi.y..roi.bottom() {
                for &v in &acc.row(y)[roi.x..roi.right()] {
                    chain = chain.max(v);
                }
            }
            assert_eq!(
                peak_response(&acc, roi).to_bits(),
                chain.to_bits(),
                "{roi:?}"
            );
        }
    }

    #[test]
    fn finds_two_markers_near_truth() {
        let src = frame_with_blobs(64, 64, &[(20.0, 20.0, 1100.0), (44.0, 44.0, 1000.0)]);
        let out = mkx_extract(
            &src,
            src.full_roi(),
            &MkxConfig::default(),
            &mut MkxBuffers::new(64, 64),
        );
        assert!(out.candidates.len() >= 2, "found {}", out.candidates.len());
        let near = |tx: f64, ty: f64| {
            out.candidates
                .iter()
                .any(|m| ((m.x - tx).powi(2) + (m.y - ty).powi(2)).sqrt() < 2.0)
        };
        assert!(near(20.0, 20.0), "candidates {:?}", out.candidates);
        assert!(near(44.0, 44.0), "candidates {:?}", out.candidates);
    }

    #[test]
    fn strongest_marker_first() {
        let src = frame_with_blobs(64, 64, &[(20.0, 20.0, 600.0), (44.0, 44.0, 1400.0)]);
        let out = mkx_extract(
            &src,
            src.full_roi(),
            &MkxConfig::default(),
            &mut MkxBuffers::new(64, 64),
        );
        assert!(out.candidates.len() >= 2);
        let first = &out.candidates[0];
        assert!((first.x - 44.0).abs() < 2.0 && (first.y - 44.0).abs() < 2.0);
    }

    #[test]
    fn empty_frame_yields_no_candidates() {
        let src: ImageU16 = Image::filled(64, 64, 2000);
        let out = mkx_extract(
            &src,
            src.full_roi(),
            &MkxConfig::default(),
            &mut MkxBuffers::new(64, 64),
        );
        assert!(out.candidates.is_empty(), "{:?}", out.candidates);
    }

    #[test]
    fn roi_restricts_detection() {
        let src = frame_with_blobs(64, 64, &[(16.0, 16.0, 1100.0), (48.0, 48.0, 1100.0)]);
        let out = mkx_extract(
            &src,
            Roi::new(0, 0, 32, 32),
            &MkxConfig::default(),
            &mut MkxBuffers::new(64, 64),
        );
        assert!(!out.candidates.is_empty());
        assert!(
            out.candidates.iter().all(|m| m.x < 32.0 && m.y < 32.0),
            "{:?}",
            out.candidates
        );
    }

    #[test]
    fn min_separation_merges_close_maxima() {
        let src = frame_with_blobs(64, 64, &[(30.0, 30.0, 1100.0), (33.0, 30.0, 1000.0)]);
        let cfg = MkxConfig {
            min_separation: 8.0,
            ..Default::default()
        };
        let out = mkx_extract(&src, src.full_roi(), &cfg, &mut MkxBuffers::new(64, 64));
        // the two blobs are 3 px apart, below separation: only one survives
        let close: Vec<_> = out
            .candidates
            .iter()
            .filter(|m| (m.y - 30.0).abs() < 4.0 && (m.x - 31.5).abs() < 6.0)
            .collect();
        assert_eq!(close.len(), 1, "{:?}", out.candidates);
    }

    #[test]
    fn max_candidates_cap_respected() {
        let blobs: Vec<(f32, f32, f32)> = (0..6)
            .flat_map(|i| (0..6).map(move |j| (8.0 + i as f32 * 9.0, 8.0 + j as f32 * 9.0, 900.0)))
            .collect();
        let src = frame_with_blobs(64, 64, &blobs);
        let cfg = MkxConfig {
            max_candidates: 5,
            ..Default::default()
        };
        let out = mkx_extract(&src, src.full_roi(), &cfg, &mut MkxBuffers::new(64, 64));
        assert!(out.candidates.len() <= 5);
        assert!(out.raw_maxima >= out.candidates.len());
    }

    #[test]
    fn subpixel_position_close_to_fractional_truth() {
        let src = frame_with_blobs(64, 64, &[(30.4, 25.7, 1200.0)]);
        let out = mkx_extract(
            &src,
            src.full_roi(),
            &MkxConfig::default(),
            &mut MkxBuffers::new(64, 64),
        );
        assert!(!out.candidates.is_empty());
        let m = &out.candidates[0];
        assert!((m.x - 30.4).abs() < 0.75, "x {}", m.x);
        assert!((m.y - 25.7).abs() < 0.75, "y {}", m.y);
    }

    #[test]
    fn marker_distance_is_euclidean() {
        let a = Marker {
            x: 0.0,
            y: 0.0,
            strength: 1.0,
            scale: 1.0,
        };
        let b = Marker {
            x: 3.0,
            y: 4.0,
            strength: 1.0,
            scale: 1.0,
        };
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
    }
}
