//! Hessian computation and eigenvalue-based ridge/blob responses.
//!
//! Dark curvilinear structures (guide wires, vessel edges) and dark punctual
//! structures (balloon markers) appear as intensity *minima* on a brighter
//! background, so their second derivatives are positive. The ridge measure
//! selects anisotropic positive curvature; the blob measure (Laplacian)
//! selects isotropic positive curvature.

use crate::image::{ImageF32, Roi};
use crate::kernel::{convolve_cols, convolve_rows, Kernel1D};

/// The three distinct entries of the (symmetric) Hessian at one scale.
#[derive(Debug)]
pub struct HessianImages {
    pub ixx: ImageF32,
    pub iyy: ImageF32,
    pub ixy: ImageF32,
}

/// Capacity bound of [`KernelCache`]: more distinct sigmas than any
/// realistic scale set (default RDG uses 3, MKX a handful); beyond it the
/// least-recently-used triple is evicted, so an adversarial sequence of
/// per-frame scale tweaks cannot grow the cache without bound.
const KERNEL_CACHE_CAPACITY: usize = 16;

/// Bounded per-sigma cache of the `(G, G', G'')` kernel triple with O(1)
/// lookup (hash on the sigma bits). Steady-state frames that reuse a
/// scale set build no tap vectors and perform no allocation; an eviction
/// scan is O(`KERNEL_CACHE_CAPACITY`) and only runs on a miss with the
/// cache full.
#[derive(Debug, Default)]
pub struct KernelCache {
    map: std::collections::HashMap<u32, KernelEntry>,
    tick: u64,
}

#[derive(Debug)]
struct KernelEntry {
    last_used: u64,
    g: Kernel1D,
    d1: Kernel1D,
    d2: Kernel1D,
}

impl KernelCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up (building on first use) the kernel triple for `sigma`.
    pub fn get(&mut self, sigma: f32) -> (&Kernel1D, &Kernel1D, &Kernel1D) {
        let key = sigma.to_bits();
        self.tick += 1;
        if !self.map.contains_key(&key) {
            if self.map.len() >= KERNEL_CACHE_CAPACITY {
                if let Some((&lru, _)) = self.map.iter().min_by_key(|(_, e)| e.last_used) {
                    self.map.remove(&lru);
                }
            }
            self.map.insert(
                key,
                KernelEntry {
                    last_used: 0,
                    g: Kernel1D::gaussian(sigma),
                    d1: Kernel1D::gaussian_d1(sigma),
                    d2: Kernel1D::gaussian_d2(sigma),
                },
            );
        }
        let e = self.map.get_mut(&key).expect("entry just ensured");
        e.last_used = self.tick;
        (&e.g, &e.d1, &e.d2)
    }

    /// The kernel triples of `sigmas`, in order, all borrowed at once so
    /// that every band job of one RDG call can share them. Builds on first
    /// use like [`KernelCache::get`]; the set has to fit the cache.
    pub(crate) fn get_all(&mut self, sigmas: &[f32]) -> Vec<(&Kernel1D, &Kernel1D, &Kernel1D)> {
        assert!(
            sigmas.len() <= KERNEL_CACHE_CAPACITY,
            "more scales than the kernel cache holds"
        );
        // Each lookup stamps its entry most recently used, so a later
        // miss of the same call never evicts it.
        for &sigma in sigmas {
            self.get(sigma);
        }
        sigmas
            .iter()
            .map(|sigma| {
                let e = &self.map[&sigma.to_bits()];
                (&e.g, &e.d1, &e.d2)
            })
            .collect()
    }

    /// Number of cached sigma triples (bounded by
    /// `KERNEL_CACHE_CAPACITY`).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no triples.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Cached tap bytes (for memory accounting).
    pub fn byte_size(&self) -> usize {
        self.map
            .values()
            .map(|e| {
                (e.g.taps().len() + e.d1.taps().len() + e.d2.taps().len())
                    * std::mem::size_of::<f32>()
            })
            .sum()
    }
}

/// Scratch buffers for a Hessian computation, reusable across frames so the
/// per-frame allocation count stays zero (the buffers are exactly the
/// "intermediate" storage accounted in Table 1). Derivative kernels are
/// cached per scale, so steady-state frames build no tap vectors either.
#[derive(Debug)]
pub struct HessianScratch {
    a: ImageF32,
    b: ImageF32,
    kernels: KernelCache,
}

impl HessianScratch {
    /// Allocates scratch for `width x height` images.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            a: ImageF32::new(width, height),
            b: ImageF32::new(width, height),
            kernels: KernelCache::new(),
        }
    }

    /// Total scratch bytes (for memory accounting).
    fn byte_size(&self) -> usize {
        self.a.byte_size() + self.b.byte_size() + self.kernels.byte_size()
    }
}

/// Full-frame working set of the unfused oracles (`rdg_roi_reference`,
/// `mkx_extract_reference`): the three Hessian component images plus the
/// separable-convolution scratch. Allocated lazily on the first oracle
/// call, so the fused paths never pay for it — their only per-scale
/// intermediates are the tile rings in `FusedScratch`.
#[derive(Debug)]
pub(crate) struct ReferenceScratch {
    pub(crate) hessian: HessianImages,
    pub(crate) conv: HessianScratch,
    /// The visited mask of the RDG oracle's flood-fill trace, one byte per
    /// pixel; empty until that oracle traces.
    pub(crate) visited: Vec<bool>,
}

impl ReferenceScratch {
    pub(crate) fn new(width: usize, height: usize) -> Self {
        Self {
            hessian: HessianImages {
                ixx: ImageF32::new(width, height),
                iyy: ImageF32::new(width, height),
                ixy: ImageF32::new(width, height),
            },
            conv: HessianScratch::new(width, height),
            visited: Vec::new(),
        }
    }

    pub(crate) fn byte_size(&self) -> usize {
        self.hessian.ixx.byte_size()
            + self.hessian.iyy.byte_size()
            + self.hessian.ixy.byte_size()
            + self.conv.byte_size()
            + self.visited.len()
    }
}

/// Computes the scale-normalized Hessian of `src` at scale `sigma`,
/// restricted to `roi`, writing into `out`.
///
/// Each component is a separable convolution:
/// `Ixx = G''(x) * G(y)`, `Iyy = G(x) * G''(y)`, `Ixy = G'(x) * G'(y)`.
pub fn hessian_at_scale(
    src: &ImageF32,
    out: &mut HessianImages,
    scratch: &mut HessianScratch,
    roi: Roi,
    sigma: f32,
) {
    let HessianScratch { a, b, kernels } = scratch;
    let (g, d1, d2) = kernels.get(sigma);
    let halo = g.radius().max(d2.radius());
    let row_roi = roi.inflate(halo, src.width(), src.height());

    // Ixx: d2 along x, smooth along y
    convolve_rows(src, a, row_roi, d2);
    convolve_cols(a, &mut out.ixx, roi, g);
    // Iyy: smooth along x, d2 along y
    convolve_rows(src, b, row_roi, g);
    convolve_cols(b, &mut out.iyy, roi, d2);
    // Ixy: d1 along x, d1 along y
    convolve_rows(src, a, row_roi, d1);
    convolve_cols(a, &mut out.ixy, roi, d1);
}

/// Eigenvalues of the 2x2 symmetric matrix `[ixx ixy; ixy iyy]`,
/// returned as `(lambda_hi, lambda_lo)` with `lambda_hi >= lambda_lo`.
#[inline]
pub fn eigenvalues(ixx: f32, iyy: f32, ixy: f32) -> (f32, f32) {
    let tr = ixx + iyy;
    let diff = ixx - iyy;
    let disc = (diff * diff * 0.25 + ixy * ixy).sqrt();
    (tr * 0.5 + disc, tr * 0.5 - disc)
}

/// Ridge response for dark line structures: the large positive eigenvalue,
/// attenuated by isotropy so blobs and flat regions score low.
///
/// `r = max(0, l_hi) * (1 - |l_lo| / |l_hi|)` when `l_hi > 0`, else 0.
#[inline]
pub fn ridge_response(ixx: f32, iyy: f32, ixy: f32) -> f32 {
    let (hi, lo) = eigenvalues(ixx, iyy, ixy);
    if hi <= 0.0 {
        return 0.0;
    }
    let aniso = 1.0 - (lo.abs() / hi).min(1.0);
    hi * aniso
}

/// Blob response for dark punctual structures: the (positive) Laplacian,
/// attenuated by anisotropy so line structures score low.
#[inline]
pub fn blob_response(ixx: f32, iyy: f32, ixy: f32) -> f32 {
    let (hi, lo) = eigenvalues(ixx, iyy, ixy);
    if lo <= 0.0 {
        // a dark blob curves upward in every direction
        return 0.0;
    }
    // both eigenvalues positive: isotropy factor lo/hi in (0, 1]
    let iso = if hi > 0.0 { lo / hi } else { 0.0 };
    (hi + lo) * iso
}

/// Writes `max(current, response(H))` into `acc` for every pixel of `roi`;
/// used to combine responses over multiple scales.
pub fn accumulate_max_response(
    h: &HessianImages,
    acc: &mut ImageF32,
    roi: Roi,
    response: impl Fn(f32, f32, f32) -> f32,
) {
    let roi = roi.clamp_to(acc.width(), acc.height());
    for y in roi.y..roi.bottom() {
        let ixx = &h.ixx.row(y)[roi.x..roi.right()];
        let iyy = &h.iyy.row(y)[roi.x..roi.right()];
        let ixy = &h.ixy.row(y)[roi.x..roi.right()];
        let out = &mut acc.row_mut(y)[roi.x..roi.right()];
        for i in 0..out.len() {
            let r = response(ixx[i], iyy[i], ixy[i]);
            if r > out[i] {
                out[i] = r;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let (hi, lo) = eigenvalues(3.0, -1.0, 0.0);
        assert!((hi - 3.0).abs() < 1e-6);
        assert!((lo + 1.0).abs() < 1e-6);
    }

    #[test]
    fn eigenvalues_ordered_and_match_trace_det() {
        for &(a, b, c) in &[(1.0f32, 2.0, 0.5), (-3.0, 4.0, 2.0), (0.0, 0.0, 1.0)] {
            let (hi, lo) = eigenvalues(a, b, c);
            assert!(hi >= lo);
            assert!((hi + lo - (a + b)).abs() < 1e-4, "trace");
            assert!((hi * lo - (a * b - c * c)).abs() < 1e-3, "det");
        }
    }

    #[test]
    fn ridge_response_prefers_anisotropic_positive() {
        // strong dark line: lambda (10, 0) -> high response
        let line = ridge_response(10.0, 0.0, 0.0);
        // dark blob: lambda (10, 10) -> zero response (isotropic)
        let blob = ridge_response(10.0, 10.0, 0.0);
        // bright line: lambda (-10, 0) -> zero response
        let bright = ridge_response(-10.0, 0.0, 0.0);
        assert!(line > 5.0);
        assert!(blob.abs() < 1e-6);
        assert!(bright == 0.0);
    }

    #[test]
    fn blob_response_prefers_isotropic_positive() {
        let blob = blob_response(10.0, 10.0, 0.0);
        let line = blob_response(10.0, 0.0, 0.0);
        let bright_blob = blob_response(-10.0, -10.0, 0.0);
        assert!(blob > 15.0);
        assert!(line.abs() < 1e-6);
        assert!(bright_blob == 0.0);
    }

    /// A synthetic dark vertical line must produce a ridge-response maximum
    /// on the line with the response oriented correctly.
    #[test]
    fn dark_line_detected_at_center() {
        let w = 33;
        let src = Image::from_fn(w, w, |x, _| {
            let d = x as f32 - 16.0;
            // bright background 1000, dark Gaussian trench depth 400, width 2
            1000.0 - 400.0 * (-d * d / (2.0 * 2.0 * 2.0)).exp()
        });
        let mut h = HessianImages {
            ixx: ImageF32::new(w, w),
            iyy: ImageF32::new(w, w),
            ixy: ImageF32::new(w, w),
        };
        let mut scratch = HessianScratch::new(w, w);
        hessian_at_scale(&src, &mut h, &mut scratch, src.full_roi(), 2.0);
        let mut acc = ImageF32::new(w, w);
        accumulate_max_response(&h, &mut acc, src.full_roi(), ridge_response);
        // response at line center must dominate off-line response
        let on = acc.get(16, 16);
        let off = acc.get(4, 16);
        assert!(on > 10.0 * (off + 1e-3), "on {} off {}", on, off);
    }

    /// A synthetic dark spot must produce a blob-response maximum at its
    /// center and low ridge response.
    #[test]
    fn dark_spot_detected_as_blob_not_ridge() {
        let w = 33;
        let src = Image::from_fn(w, w, |x, y| {
            let dx = x as f32 - 16.0;
            let dy = y as f32 - 16.0;
            1000.0 - 500.0 * (-(dx * dx + dy * dy) / (2.0 * 2.0 * 2.0)).exp()
        });
        let mut h = HessianImages {
            ixx: ImageF32::new(w, w),
            iyy: ImageF32::new(w, w),
            ixy: ImageF32::new(w, w),
        };
        let mut scratch = HessianScratch::new(w, w);
        hessian_at_scale(&src, &mut h, &mut scratch, src.full_roi(), 2.0);

        let mut blob = ImageF32::new(w, w);
        accumulate_max_response(&h, &mut blob, src.full_roi(), blob_response);
        let mut ridge = ImageF32::new(w, w);
        accumulate_max_response(&h, &mut ridge, src.full_roi(), ridge_response);

        assert!(
            blob.get(16, 16) > 50.0,
            "blob response {}",
            blob.get(16, 16)
        );
        assert!(
            blob.get(16, 16) > 3.0 * ridge.get(16, 16),
            "blob {} should beat ridge {}",
            blob.get(16, 16),
            ridge.get(16, 16)
        );
    }

    #[test]
    fn kernel_cache_does_not_grow_on_repeated_scale_sets() {
        let mut cache = KernelCache::new();
        for _ in 0..50 {
            for &sigma in &[1.5f32, 2.5, 4.0] {
                let (g, d1, d2) = cache.get(sigma);
                assert_eq!(g.radius(), d1.radius());
                assert_eq!(g.radius(), d2.radius());
            }
            assert_eq!(cache.len(), 3, "repeated scale set must not grow the cache");
        }
        let warm_bytes = cache.byte_size();
        cache.get(1.5);
        assert_eq!(cache.byte_size(), warm_bytes);
    }

    #[test]
    fn kernel_cache_is_bounded_under_distinct_sigma_flood() {
        let mut cache = KernelCache::new();
        for i in 0..4 * KERNEL_CACHE_CAPACITY {
            cache.get(1.0 + i as f32 * 0.01);
            assert!(cache.len() <= KERNEL_CACHE_CAPACITY, "cache grew past cap");
        }
        assert_eq!(cache.len(), KERNEL_CACHE_CAPACITY);
        // Entries keep working after evictions: a fresh triple is rebuilt
        // with the right geometry.
        let (g, _, _) = cache.get(1.0);
        assert_eq!(g.radius(), 3);
    }

    #[test]
    fn accumulate_max_keeps_largest() {
        let h = HessianImages {
            ixx: ImageF32::filled(4, 4, 1.0),
            iyy: ImageF32::filled(4, 4, 0.0),
            ixy: ImageF32::filled(4, 4, 0.0),
        };
        let mut acc = ImageF32::filled(4, 4, 100.0);
        accumulate_max_response(&h, &mut acc, Roi::full(4, 4), ridge_response);
        assert_eq!(acc.get(0, 0), 100.0);
    }
}
