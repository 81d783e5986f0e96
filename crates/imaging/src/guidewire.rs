//! GW EXT — guide-wire extraction.
//!
//! Verifies a marker couple by searching for a ridge (the guide wire)
//! joining the two markers (Section 3): a dynamic-programming path search
//! over lateral offsets around the marker axis, maximizing accumulated
//! ridge response under a smoothness constraint. A couple whose markers sit
//! on a connecting ridge is considered a stable detection.
//!
//! The task cost grows with the marker separation (path length) and with
//! the search corridor width, so the computation time is data-dependent —
//! the paper models GW EXT with a Markov chain.

use crate::couples::Couple;
use crate::image::{ImageF32, Roi};

/// Configuration of guide-wire extraction.
#[derive(Debug, Clone)]
pub struct GwConfig {
    /// Half-width of the search corridor perpendicular to the marker axis,
    /// in samples.
    pub corridor_half_width: usize,
    /// Maximum lateral offset change between consecutive samples (the
    /// smoothness constraint), in lateral samples.
    pub max_kink: usize,
    /// Minimum mean ridge response along the best path for the wire to
    /// count as found, as a fraction of the corridor's peak response.
    pub min_mean_rel: f32,
}

impl Default for GwConfig {
    fn default() -> Self {
        Self {
            corridor_half_width: 8,
            max_kink: 1,
            min_mean_rel: 0.2,
        }
    }
}

/// Result of guide-wire extraction.
#[derive(Debug, Clone)]
pub struct GwOutput {
    /// Whether a connecting ridge was found (drives couple validation).
    pub wire_found: bool,
    /// The extracted wire path, image coordinates.
    pub path: Vec<(f64, f64)>,
    /// Mean ridge response along the path.
    pub mean_response: f32,
    /// Number of DP cells evaluated (content-dependent load proxy).
    pub cells_evaluated: usize,
}

/// Reusable working memory of the DP path search, so steady-state frames
/// perform no per-frame heap allocation (the corridor geometry is stable
/// while tracking, so the vectors keep their capacity).
#[derive(Debug, Default)]
pub struct GwScratch {
    resp: Vec<f32>,
    best: Vec<f32>,
    back: Vec<usize>,
    offsets: Vec<usize>,
}

impl GwScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Scratch bytes currently held (memory accounting).
    pub fn byte_size(&self) -> usize {
        self.resp.capacity() * std::mem::size_of::<f32>()
            + self.best.capacity() * std::mem::size_of::<f32>()
            + self.back.capacity() * std::mem::size_of::<usize>()
            + self.offsets.capacity() * std::mem::size_of::<usize>()
    }
}

/// Samples the ridge map with bilinear interpolation.
fn sample_bilinear(map: &ImageF32, x: f64, y: f64) -> f32 {
    let (w, h) = map.dims();
    if w == 0 || h == 0 {
        return 0.0;
    }
    let xf = x.clamp(0.0, (w - 1) as f64);
    let yf = y.clamp(0.0, (h - 1) as f64);
    let x0 = xf.floor() as usize;
    let y0 = yf.floor() as usize;
    let x1 = (x0 + 1).min(w - 1);
    let y1 = (y0 + 1).min(h - 1);
    let fx = (xf - x0 as f64) as f32;
    let fy = (yf - y0 as f64) as f32;
    let v00 = map.get(x0, y0);
    let v10 = map.get(x1, y0);
    let v01 = map.get(x0, y1);
    let v11 = map.get(x1, y1);
    v00 * (1.0 - fx) * (1.0 - fy) + v10 * fx * (1.0 - fy) + v01 * (1.0 - fx) * fy + v11 * fx * fy
}

/// Lateral sample spacing, pixels.
const LATERAL_STEP: f64 = 1.0;
/// Longitudinal sample spacing along the axis, pixels.
const ALONG_STEP: f64 = 1.0;

/// Bounding box of the pixels [`gw_extract_with`] can read from a
/// `width x height` ridge map for `couple`: the markers' bounding box grown
/// by the corridor's half-width, one more column and row for the far tap of
/// the bilinear sample, clamped to the map as the sampler clamps.
pub fn corridor_box(couple: &Couple, cfg: &GwConfig, width: usize, height: usize) -> Roi {
    if width == 0 || height == 0 {
        return Roi::new(0, 0, 0, 0);
    }
    // The slack absorbs the rounding of `a + u·t·len ± n·off`; it costs a
    // column only when a sample lands within it of a pixel boundary.
    let reach = cfg.corridor_half_width as f64 * LATERAL_STEP + 1e-6;
    let span = |a: f64, b: f64, n: usize| {
        let top = (n - 1) as f64;
        let first = (a.min(b) - reach).clamp(0.0, top).floor() as usize;
        let last = ((a.max(b) + reach).clamp(0.0, top).floor() as usize + 1).min(n - 1);
        (first, last - first + 1)
    };
    let (x, w) = span(couple.a.x, couple.b.x, width);
    let (y, h) = span(couple.a.y, couple.b.y, height);
    Roi::new(x, y, w, h)
}

/// Searches for the guide wire joining the two markers of `couple` in the
/// ridge-response map produced by RDG. `scratch` is caller-owned so
/// per-frame callers reuse it across frames.
pub fn gw_extract_with(
    ridgeness: &ImageF32,
    couple: &Couple,
    cfg: &GwConfig,
    scratch: &mut GwScratch,
) -> GwOutput {
    let (ax, ay) = (couple.a.x, couple.a.y);
    let (bx, by) = (couple.b.x, couple.b.y);
    let len = couple.length();
    if len < 1e-9 {
        return GwOutput {
            wire_found: false,
            path: Vec::new(),
            mean_response: 0.0,
            cells_evaluated: 0,
        };
    }
    // unit vectors along and across the axis
    let ux = (bx - ax) / len;
    let uy = (by - ay) / len;
    let (nx, ny) = (-uy, ux);

    let n_along = ((len / ALONG_STEP).ceil() as usize).max(2);
    let n_lat = 2 * cfg.corridor_half_width + 1;

    // sample corridor responses (every cell is overwritten before being
    // read, so the resized scratch carries no stale data)
    let GwScratch {
        resp,
        best,
        back,
        offsets,
    } = scratch;
    resp.clear();
    resp.resize(n_along * n_lat, 0.0);
    best.clear();
    best.resize(n_along * n_lat, 0.0);
    back.clear();
    back.resize(n_along * n_lat, 0);
    offsets.clear();
    offsets.resize(n_along, 0);
    let mut peak = 0.0f32;
    for i in 0..n_along {
        let t = i as f64 / (n_along - 1) as f64;
        let px = ax + ux * t * len;
        let py = ay + uy * t * len;
        for j in 0..n_lat {
            let off = (j as f64 - cfg.corridor_half_width as f64) * LATERAL_STEP;
            let v = sample_bilinear(ridgeness, px + nx * off, py + ny * off);
            resp[i * n_lat + j] = v;
            peak = peak.max(v);
        }
    }

    // DP: best[i][j] = resp[i][j] + max over |j'-j|<=max_kink of best[i-1][j']
    best[..n_lat].copy_from_slice(&resp[..n_lat]);
    let mut cells_evaluated = n_lat;
    for i in 1..n_along {
        let (done, cur) = best.split_at_mut(i * n_lat);
        let prev = &done[(i - 1) * n_lat..];
        cells_evaluated += dp_row(
            prev,
            &resp[i * n_lat..(i + 1) * n_lat],
            cfg.max_kink,
            &mut cur[..n_lat],
            &mut back[i * n_lat..(i + 1) * n_lat],
        );
    }

    // endpoints are the markers: the path must start and end at the center
    // of the corridor (offset 0), so trace back from the center cell.
    let center = cfg.corridor_half_width;
    let mut j = center;
    offsets[n_along - 1] = j;
    for i in (1..n_along).rev() {
        j = back[i * n_lat + j];
        offsets[i - 1] = j;
    }

    let mut path = Vec::with_capacity(n_along);
    let mut sum = 0.0f32;
    for (i, &jj) in offsets.iter().enumerate() {
        let t = i as f64 / (n_along - 1) as f64;
        let off = (jj as f64 - center as f64) * LATERAL_STEP;
        let px = ax + ux * t * len + nx * off;
        let py = ay + uy * t * len + ny * off;
        path.push((px, py));
        sum += resp[i * n_lat + jj];
    }
    let mean_response = sum / n_along as f32;
    let wire_found = peak > 0.0 && mean_response >= cfg.min_mean_rel * peak;

    GwOutput {
        wire_found,
        path,
        mean_response,
        cells_evaluated,
    }
}

/// Reference for [`gw_extract_with`]: the one-shot, allocating form with
/// the DP written out cell by cell, which the pooled row-wise search must
/// reproduce exactly (same windowed strict-`>` argmax with lowest-index
/// tie-break, same evaluation count).
pub fn gw_extract_reference(ridgeness: &ImageF32, couple: &Couple, cfg: &GwConfig) -> GwOutput {
    let (ax, ay) = (couple.a.x, couple.a.y);
    let (bx, by) = (couple.b.x, couple.b.y);
    let len = couple.length();
    if len < 1e-9 {
        return GwOutput {
            wire_found: false,
            path: Vec::new(),
            mean_response: 0.0,
            cells_evaluated: 0,
        };
    }
    let ux = (bx - ax) / len;
    let uy = (by - ay) / len;
    let (nx, ny) = (-uy, ux);

    let n_along = ((len / ALONG_STEP).ceil() as usize).max(2);
    let n_lat = 2 * cfg.corridor_half_width + 1;

    let mut resp = vec![0.0f32; n_along * n_lat];
    let mut best = vec![0.0f32; n_along * n_lat];
    let mut back = vec![0usize; n_along * n_lat];
    let mut peak = 0.0f32;
    for i in 0..n_along {
        let t = i as f64 / (n_along - 1) as f64;
        let px = ax + ux * t * len;
        let py = ay + uy * t * len;
        for j in 0..n_lat {
            let off = (j as f64 - cfg.corridor_half_width as f64) * LATERAL_STEP;
            let v = sample_bilinear(ridgeness, px + nx * off, py + ny * off);
            resp[i * n_lat + j] = v;
            peak = peak.max(v);
        }
    }

    best[..n_lat].copy_from_slice(&resp[..n_lat]);
    let mut cells_evaluated = n_lat;
    for i in 1..n_along {
        for j in 0..n_lat {
            let lo = j.saturating_sub(cfg.max_kink);
            let hi = (j + cfg.max_kink).min(n_lat - 1);
            let mut arg = lo;
            let mut val = best[(i - 1) * n_lat + lo];
            for k in (lo + 1)..=hi {
                cells_evaluated += 1;
                let v = best[(i - 1) * n_lat + k];
                if v > val {
                    val = v;
                    arg = k;
                }
            }
            cells_evaluated += 1;
            best[i * n_lat + j] = resp[i * n_lat + j] + val;
            back[i * n_lat + j] = arg;
        }
    }

    let center = cfg.corridor_half_width;
    let mut j = center;
    let mut offsets = vec![0usize; n_along];
    offsets[n_along - 1] = j;
    for i in (1..n_along).rev() {
        j = back[i * n_lat + j];
        offsets[i - 1] = j;
    }

    let mut path = Vec::with_capacity(n_along);
    let mut sum = 0.0f32;
    for (i, &jj) in offsets.iter().enumerate() {
        let t = i as f64 / (n_along - 1) as f64;
        let off = (jj as f64 - center as f64) * LATERAL_STEP;
        let px = ax + ux * t * len + nx * off;
        let py = ay + uy * t * len + ny * off;
        path.push((px, py));
        sum += resp[i * n_lat + jj];
    }
    let mean_response = sum / n_along as f32;
    let wire_found = peak > 0.0 && mean_response >= cfg.min_mean_rel * peak;

    GwOutput {
        wire_found,
        path,
        mean_response,
        cells_evaluated,
    }
}

/// One DP row update: for every lateral cell `j`,
/// `best[j] = resp[j] + max(prev[j-kink..=j+kink])` with the argmax
/// index recorded in `back[j]` (strict `>`, so the lowest index wins a
/// tie). Returns the number of window cells evaluated (the
/// content-dependent load proxy).
fn dp_row(
    prev: &[f32],
    resp_row: &[f32],
    kink: usize,
    best_row: &mut [f32],
    back_row: &mut [usize],
) -> usize {
    let n = prev.len();
    let mut cells = 0usize;
    for j in 0..n {
        let lo = j.saturating_sub(kink);
        let hi = (j + kink).min(n - 1);
        let mut arg = lo;
        let mut val = prev[lo];
        for (k, &v) in prev.iter().enumerate().take(hi + 1).skip(lo + 1) {
            if v > val {
                val = v;
                arg = k;
            }
        }
        cells += hi - lo + 1;
        best_row[j] = resp_row[j] + val;
        back_row[j] = arg;
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;
    use crate::markers::Marker;

    fn couple(ax: f64, ay: f64, bx: f64, by: f64) -> Couple {
        Couple {
            a: Marker {
                x: ax,
                y: ay,
                strength: 1.0,
                scale: 2.0,
            },
            b: Marker {
                x: bx,
                y: by,
                strength: 1.0,
                scale: 2.0,
            },
            score: 0.0,
        }
    }

    /// Ridge map with a bright horizontal line at y=32.
    fn line_map(w: usize, h: usize, y0: f64) -> ImageF32 {
        Image::from_fn(w, h, |x, y| {
            let _ = x;
            let d = y as f64 - y0;
            (100.0 * (-d * d / 2.0).exp()) as f32
        })
    }

    #[test]
    fn finds_wire_on_straight_ridge() {
        let map = line_map(64, 64, 32.0);
        let c = couple(10.0, 32.0, 54.0, 32.0);
        let out = gw_extract_with(&map, &c, &GwConfig::default(), &mut GwScratch::new());
        assert!(out.wire_found, "mean {} ", out.mean_response);
        assert!(out.mean_response > 50.0);
        // path stays near the ridge
        for &(_, y) in &out.path {
            assert!((y - 32.0).abs() < 2.0, "path strays to y={}", y);
        }
    }

    #[test]
    fn no_wire_on_empty_map() {
        let map: ImageF32 = Image::new(64, 64);
        let c = couple(10.0, 32.0, 54.0, 32.0);
        let out = gw_extract_with(&map, &c, &GwConfig::default(), &mut GwScratch::new());
        assert!(!out.wire_found);
        assert_eq!(out.mean_response, 0.0);
    }

    #[test]
    fn wire_with_gap_rejected() {
        // ridge exists only on the left half: mean response along the
        // corridor drops below the threshold
        let map = Image::from_fn(64, 64, |x, y| {
            if x < 24 {
                let d = y as f64 - 32.0;
                (100.0 * (-d * d / 2.0).exp()) as f32
            } else {
                0.0
            }
        });
        let c = couple(10.0, 32.0, 54.0, 32.0);
        let cfg = GwConfig {
            min_mean_rel: 0.5,
            ..Default::default()
        };
        let out = gw_extract_with(&map, &c, &cfg, &mut GwScratch::new());
        assert!(!out.wire_found, "mean {}", out.mean_response);
    }

    #[test]
    fn path_follows_gentle_curve() {
        // ridge drifts from y=30 to y=34 across the image
        let map = Image::from_fn(64, 64, |x, y| {
            let yc = 30.0 + 4.0 * (x as f64 / 63.0);
            let d = y as f64 - yc;
            (100.0 * (-d * d / 2.0).exp()) as f32
        });
        let c = couple(2.0, 30.0, 62.0, 34.0);
        let out = gw_extract_with(&map, &c, &GwConfig::default(), &mut GwScratch::new());
        assert!(out.wire_found);
        // midpoint of the path should sit near the curve midpoint (y=32)
        let (_, my) = out.path[out.path.len() / 2];
        assert!((my - 32.0).abs() < 2.5, "mid y {}", my);
    }

    #[test]
    fn cost_grows_with_marker_separation() {
        let map = line_map(128, 64, 32.0);
        let near = gw_extract_with(
            &map,
            &couple(10.0, 32.0, 30.0, 32.0),
            &GwConfig::default(),
            &mut GwScratch::new(),
        );
        let far = gw_extract_with(
            &map,
            &couple(10.0, 32.0, 120.0, 32.0),
            &GwConfig::default(),
            &mut GwScratch::new(),
        );
        assert!(far.cells_evaluated > 2 * near.cells_evaluated);
    }

    #[test]
    fn degenerate_couple_is_rejected() {
        let map = line_map(64, 64, 32.0);
        let c = couple(20.0, 32.0, 20.0, 32.0);
        let out = gw_extract_with(&map, &c, &GwConfig::default(), &mut GwScratch::new());
        assert!(!out.wire_found);
        assert!(out.path.is_empty());
    }

    #[test]
    fn scratch_reuse_matches_fresh_runs() {
        // reused scratch (including across corridor-geometry changes) must
        // give bit-identical results to one-shot extraction
        let map = line_map(128, 64, 32.0);
        let mut scratch = GwScratch::new();
        let long = couple(10.0, 32.0, 120.0, 32.0);
        let short = couple(30.0, 32.0, 60.0, 32.0);
        for c in [&long, &short, &long] {
            let reused = gw_extract_with(&map, c, &GwConfig::default(), &mut scratch);
            let fresh = gw_extract_with(&map, c, &GwConfig::default(), &mut GwScratch::new());
            assert_eq!(reused.wire_found, fresh.wire_found);
            assert_eq!(
                reused.mean_response.to_bits(),
                fresh.mean_response.to_bits()
            );
            assert_eq!(reused.cells_evaluated, fresh.cells_evaluated);
            assert_eq!(reused.path, fresh.path);
        }
    }

    #[test]
    fn pooled_dp_matches_reference() {
        // corridor geometry changes between calls on one scratch; every
        // width and kink must match the reference bit for bit
        let map = Image::from_fn(96, 64, |x, y| {
            let yc = 28.0 + 6.0 * ((x as f64 / 95.0) * 3.1).sin();
            let d = y as f64 - yc;
            (90.0 * (-d * d / 3.0).exp()) as f32 + ((x * 31 + y * 17) % 13) as f32
        });
        let mut scratch = GwScratch::new();
        for half_width in [2usize, 8, 13] {
            for kink in [1usize, 2, 3] {
                let cfg = GwConfig {
                    corridor_half_width: half_width,
                    max_kink: kink,
                    ..Default::default()
                };
                let c = couple(5.0, 30.0, 90.0, 31.0);
                let fast = gw_extract_with(&map, &c, &cfg, &mut scratch);
                let reference = gw_extract_reference(&map, &c, &cfg);
                assert_eq!(
                    fast.wire_found, reference.wire_found,
                    "hw={half_width} k={kink}"
                );
                assert_eq!(
                    fast.mean_response.to_bits(),
                    reference.mean_response.to_bits(),
                    "hw={half_width} k={kink}"
                );
                assert_eq!(fast.cells_evaluated, reference.cells_evaluated);
                assert_eq!(fast.path, reference.path);
            }
        }
    }

    #[test]
    fn corridor_box_holds_every_tap_of_the_sampler() {
        // NaN outside the box: a single tap out there, even at weight zero,
        // would poison the sampled response
        let map = Image::from_fn(64, 48, |x, y| ((x * 31 + y * 17) % 13) as f32);
        let cfg = GwConfig::default();
        for c in [
            couple(10.0, 32.0, 54.0, 32.0),
            couple(50.25, 40.5, 12.75, 9.125),
            // corridor clamped against the frame corners
            couple(0.0, 0.0, 20.0, 3.0),
            couple(63.0, 47.0, 40.5, 44.0),
            couple(2.5, 45.0, 61.0, 1.5),
            // markers on pixel centres, axis-aligned: taps on box edges
            couple(20.0, 8.0, 20.0, 30.0),
        ] {
            let window = corridor_box(&c, &cfg, 64, 48);
            let masked = Image::from_fn(64, 48, |x, y| {
                if window.contains(x, y) {
                    map.get(x, y)
                } else {
                    f32::NAN
                }
            });
            let whole = gw_extract_with(&map, &c, &cfg, &mut GwScratch::new());
            let boxed = gw_extract_with(&masked, &c, &cfg, &mut GwScratch::new());
            assert_eq!(
                boxed.mean_response.to_bits(),
                whole.mean_response.to_bits(),
                "{window}"
            );
            assert_eq!(boxed.path, whole.path);
            assert_eq!(boxed.wire_found, whole.wire_found);
        }
    }

    #[test]
    fn diagonal_wire_found() {
        let map = Image::from_fn(64, 64, |x, y| {
            let d = (x as f64 - y as f64) / std::f64::consts::SQRT_2;
            (100.0 * (-d * d / 2.0).exp()) as f32
        });
        let c = couple(10.0, 10.0, 50.0, 50.0);
        let out = gw_extract_with(&map, &c, &GwConfig::default(), &mut GwScratch::new());
        assert!(out.wire_found, "mean {}", out.mean_response);
    }
}
