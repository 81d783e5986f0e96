//! Image buffers, regions of interest and stripe decomposition.
//!
//! The application processes 1024x1024 16-bit grayscale X-ray frames
//! (2 bytes/pixel, 30 Hz in the paper). Intermediate results of the filter
//! stages use `f32` buffers. Both share the generic [`Image`] container.

use std::fmt;

/// Pixel type of acquired X-ray frames (the paper uses 2 bytes/pixel).
pub type Pixel = u16;

/// A rectangular region of interest in pixel coordinates.
///
/// `x`/`y` is the top-left corner (inclusive); `width`/`height` the extent.
/// A `Roi` is always interpreted relative to the image it is applied to and
/// must be validated with [`Roi::clamp_to`] before indexing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Roi {
    pub x: usize,
    pub y: usize,
    pub width: usize,
    pub height: usize,
}

impl Roi {
    /// Creates a new ROI.
    pub const fn new(x: usize, y: usize, width: usize, height: usize) -> Self {
        Self {
            x,
            y,
            width,
            height,
        }
    }

    /// ROI spanning a full `width x height` image.
    pub const fn full(width: usize, height: usize) -> Self {
        Self {
            x: 0,
            y: 0,
            width,
            height,
        }
    }

    /// Number of pixels covered.
    pub const fn area(&self) -> usize {
        self.width * self.height
    }

    /// Whether the ROI covers zero pixels.
    pub const fn is_empty(&self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Exclusive right edge.
    pub const fn right(&self) -> usize {
        self.x + self.width
    }

    /// Exclusive bottom edge.
    pub const fn bottom(&self) -> usize {
        self.y + self.height
    }

    /// Whether `(x, y)` lies inside the ROI.
    pub const fn contains(&self, x: usize, y: usize) -> bool {
        x >= self.x && x < self.x + self.width && y >= self.y && y < self.y + self.height
    }

    /// Clamps the ROI so it fits within a `width x height` image.
    ///
    /// Returns an empty ROI at the origin if there is no overlap at all.
    pub fn clamp_to(&self, width: usize, height: usize) -> Roi {
        if self.x >= width || self.y >= height {
            return Roi::new(0, 0, 0, 0);
        }
        let w = self.width.min(width - self.x);
        let h = self.height.min(height - self.y);
        Roi::new(self.x, self.y, w, h)
    }

    /// Grows the ROI by `margin` pixels on every side, clamped to the image.
    pub fn inflate(&self, margin: usize, width: usize, height: usize) -> Roi {
        let x = self.x.saturating_sub(margin);
        let y = self.y.saturating_sub(margin);
        let right = (self.x + self.width + margin).min(width);
        let bottom = (self.y + self.height + margin).min(height);
        Roi::new(x, y, right.saturating_sub(x), bottom.saturating_sub(y))
    }

    /// Intersection of two ROIs; empty if disjoint.
    pub fn intersect(&self, other: &Roi) -> Roi {
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if right <= x || bottom <= y {
            Roi::new(0, 0, 0, 0)
        } else {
            Roi::new(x, y, right - x, bottom - y)
        }
    }

    /// Smallest ROI containing both (union bounding box).
    pub fn union(&self, other: &Roi) -> Roi {
        if self.is_empty() {
            return *other;
        }
        if other.is_empty() {
            return *self;
        }
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let right = self.right().max(other.right());
        let bottom = self.bottom().max(other.bottom());
        Roi::new(x, y, right - x, bottom - y)
    }

    /// Splits the ROI into `n` horizontal stripes of near-equal height.
    ///
    /// The first `area_remainder` stripes get one extra row, so the stripes
    /// tile the ROI exactly. Stripes of zero height are omitted, so fewer
    /// than `n` entries may be returned for very thin ROIs.
    pub fn stripes(&self, n: usize) -> Vec<Roi> {
        assert!(n > 0, "stripe count must be positive");
        let base = self.height / n;
        let rem = self.height % n;
        let mut out = Vec::with_capacity(n);
        let mut y = self.y;
        for i in 0..n {
            let h = base + usize::from(i < rem);
            if h > 0 {
                out.push(Roi::new(self.x, y, self.width, h));
                y += h;
            }
        }
        out
    }
}

impl fmt::Display for Roi {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}+{}+{}", self.width, self.height, self.x, self.y)
    }
}

/// A dense, row-major 2-D image with element type `T`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image<T> {
    width: usize,
    height: usize,
    data: Vec<T>,
}

/// A 16-bit grayscale image, the acquisition format of the X-ray detector.
pub type ImageU16 = Image<Pixel>;
/// A 32-bit float image used for filter intermediates and ridge maps.
pub type ImageF32 = Image<f32>;

impl<T: Copy + Default> Image<T> {
    /// Creates an image filled with `T::default()`.
    pub fn new(width: usize, height: usize) -> Self {
        Self {
            width,
            height,
            data: vec![T::default(); width * height],
        }
    }
}

impl<T: Copy> Image<T> {
    /// Creates an image filled with `value`.
    pub fn filled(width: usize, height: usize, value: T) -> Self {
        Self {
            width,
            height,
            data: vec![value; width * height],
        }
    }

    /// Creates an image from a generator function `f(x, y)`.
    pub fn from_fn(width: usize, height: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(width * height);
        for y in 0..height {
            for x in 0..width {
                data.push(f(x, y));
            }
        }
        Self {
            width,
            height,
            data,
        }
    }

    /// Wraps an existing row-major buffer. Panics if the length mismatches.
    pub fn from_vec(width: usize, height: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            width * height,
            "buffer length must be width*height"
        );
        Self {
            width,
            height,
            data,
        }
    }

    /// Image width in pixels.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    /// `(width, height)` pair.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Full-image ROI.
    pub fn full_roi(&self) -> Roi {
        Roi::full(self.width, self.height)
    }

    /// Buffer size in bytes (used for the Table-1 memory accounting).
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<T>()
    }

    /// Reads pixel `(x, y)`. Panics on out-of-bounds in debug builds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x]
    }

    /// Writes pixel `(x, y)`.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: T) {
        debug_assert!(x < self.width && y < self.height);
        self.data[y * self.width + x] = v;
    }

    /// Reads with coordinates clamped to the image border (replicate
    /// boundary handling for the filters).
    #[inline]
    pub fn get_clamped(&self, x: isize, y: isize) -> T {
        let cx = x.clamp(0, self.width as isize - 1) as usize;
        let cy = y.clamp(0, self.height as isize - 1) as usize;
        self.data[cy * self.width + cx]
    }

    /// Immutable view of row `y`.
    #[inline]
    pub fn row(&self, y: usize) -> &[T] {
        &self.data[y * self.width..(y + 1) * self.width]
    }

    /// Mutable view of row `y`.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        &mut self.data[y * self.width..(y + 1) * self.width]
    }

    /// The whole buffer, row-major.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The whole buffer, mutable.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Overwrites every pixel with `value`.
    pub fn fill(&mut self, value: T) {
        self.data.fill(value);
    }

    /// Overwrites this image with `src`'s pixels (same geometry required);
    /// lets pooled buffers be refreshed without reallocating.
    pub fn copy_from(&mut self, src: &Image<T>) {
        assert_eq!(
            self.dims(),
            src.dims(),
            "copy_from requires matching geometry"
        );
        self.data.copy_from_slice(&src.data);
    }

    /// Applies `f` to every pixel, producing a new image of type `U`.
    pub fn map<U: Copy>(&self, mut f: impl FnMut(T) -> U) -> Image<U> {
        Image {
            width: self.width,
            height: self.height,
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Splits the image into one disjoint mutable band of full-width rows
    /// per entry of `parts` (rows `p.y..p.bottom()`), so band workers can
    /// write straight into a shared image without crops or pastes.
    /// `parts` must run top to bottom without overlap, as
    /// [`Roi::stripes`] returns them.
    pub fn row_bands<'a>(&'a mut self, parts: &'a [Roi]) -> impl Iterator<Item = &'a mut [T]> + 'a {
        let width = self.width;
        let mut rest: &mut [T] = &mut self.data;
        let mut consumed = 0usize;
        parts.iter().map(move |p| {
            let tail = std::mem::take(&mut rest);
            let (_, tail) = tail.split_at_mut(p.y * width - consumed);
            let (band, tail) = tail.split_at_mut(p.height * width);
            rest = tail;
            consumed = p.bottom() * width;
            band
        })
    }
}

impl ImageU16 {
    /// Mean pixel value as `f64` (used by tests and the noise model).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() / self.data.len() as f64
    }

    /// Minimum and maximum pixel values; `(0, 0)` for an empty image.
    pub fn min_max(&self) -> (Pixel, Pixel) {
        let mut lo = Pixel::MAX;
        let mut hi = Pixel::MIN;
        if self.data.is_empty() {
            return (0, 0);
        }
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Converts to `f32` for the filter stages.
    pub fn to_f32(&self) -> ImageF32 {
        self.map(|v| v as f32)
    }
}

impl ImageF32 {
    /// Converts to `u16` with clamping to the pixel range.
    pub fn to_u16(&self) -> ImageU16 {
        self.map(|v| v.clamp(0.0, Pixel::MAX as f32) as Pixel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roi_area_and_edges() {
        let r = Roi::new(10, 20, 30, 40);
        assert_eq!(r.area(), 1200);
        assert_eq!(r.right(), 40);
        assert_eq!(r.bottom(), 60);
        assert!(r.contains(10, 20));
        assert!(r.contains(39, 59));
        assert!(!r.contains(40, 59));
        assert!(!r.contains(9, 20));
    }

    #[test]
    fn roi_clamp_inside_and_outside() {
        let r = Roi::new(100, 100, 50, 50).clamp_to(120, 200);
        assert_eq!(r, Roi::new(100, 100, 20, 50));
        let r = Roi::new(300, 0, 10, 10).clamp_to(120, 200);
        assert!(r.is_empty());
    }

    #[test]
    fn roi_inflate_clamps_at_borders() {
        let r = Roi::new(2, 3, 10, 10).inflate(5, 100, 100);
        assert_eq!(r, Roi::new(0, 0, 17, 18));
        let r = Roi::new(90, 90, 10, 10).inflate(5, 100, 100);
        assert_eq!(r, Roi::new(85, 85, 15, 15));
    }

    #[test]
    fn roi_intersect_and_union() {
        let a = Roi::new(0, 0, 10, 10);
        let b = Roi::new(5, 5, 10, 10);
        assert_eq!(a.intersect(&b), Roi::new(5, 5, 5, 5));
        assert_eq!(a.union(&b), Roi::new(0, 0, 15, 15));
        let c = Roi::new(20, 20, 5, 5);
        assert!(a.intersect(&c).is_empty());
    }

    #[test]
    fn roi_union_with_empty_is_identity() {
        let a = Roi::new(3, 4, 5, 6);
        let empty = Roi::new(0, 0, 0, 0);
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&a), a);
    }

    #[test]
    fn stripes_tile_roi_exactly() {
        let r = Roi::new(0, 7, 64, 33);
        let stripes = r.stripes(4);
        assert_eq!(stripes.len(), 4);
        let total: usize = stripes.iter().map(|s| s.height).sum();
        assert_eq!(total, 33);
        // contiguous
        let mut y = r.y;
        for s in &stripes {
            assert_eq!(s.y, y);
            assert_eq!(s.width, r.width);
            y += s.height;
        }
        assert_eq!(y, r.bottom());
    }

    #[test]
    fn stripes_more_than_rows() {
        let r = Roi::new(0, 0, 8, 3);
        let stripes = r.stripes(8);
        assert_eq!(stripes.len(), 3);
        assert!(stripes.iter().all(|s| s.height == 1));
    }

    #[test]
    fn image_from_fn_and_get() {
        let img = Image::from_fn(4, 3, |x, y| (10 * y + x) as u16);
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(3, 2), 23);
        assert_eq!(img.row(1), &[10, 11, 12, 13]);
    }

    #[test]
    fn image_get_clamped_replicates_border() {
        let img = Image::from_fn(3, 3, |x, y| (y * 3 + x) as u16);
        assert_eq!(img.get_clamped(-5, -5), 0);
        assert_eq!(img.get_clamped(10, 10), 8);
        assert_eq!(img.get_clamped(-1, 1), 3);
    }

    #[test]
    fn byte_size_accounts_element_width() {
        let a: ImageU16 = Image::new(16, 16);
        let b: ImageF32 = Image::new(16, 16);
        assert_eq!(a.byte_size(), 16 * 16 * 2);
        assert_eq!(b.byte_size(), 16 * 16 * 4);
    }

    #[test]
    fn row_bands_are_disjoint_and_cover_their_rows() {
        let mut img: ImageU16 = Image::new(4, 12);
        // an ROI that starts below the top and ends above the bottom
        let parts = Roi::new(1, 1, 2, 10).stripes(3);
        let bands: Vec<&mut [u16]> = img.row_bands(&parts).collect();
        assert_eq!(bands.len(), 3);
        for (i, rows) in bands.into_iter().enumerate() {
            assert_eq!(rows.len(), parts[i].height * 4, "full-width rows");
            rows.fill(i as u16 + 1);
        }
        // rows 1..5 -> 1, 5..8 -> 2, 8..11 -> 3; rows 0 and 11 untouched
        let col: Vec<u16> = (0..12).map(|y| img.get(0, y)).collect();
        assert_eq!(col, [0, 1, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0]);
    }

    #[test]
    fn min_max_and_mean() {
        let img = Image::from_vec(2, 2, vec![1u16, 5, 3, 7]);
        assert_eq!(img.min_max(), (1, 7));
        assert!((img.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn f32_round_trip_clamps() {
        let img = Image::from_vec(2, 1, vec![-5.0f32, 70000.0]);
        let u = img.to_u16();
        assert_eq!(u.get(0, 0), 0);
        assert_eq!(u.get(1, 0), u16::MAX);
    }
}
