//! PGM (portable graymap) image I/O.
//!
//! The examples and experiments write intermediate and enhanced frames as
//! binary PGM files — the simplest format any image viewer opens. 16-bit
//! images are windowed to 8 bits on write (with the window returned).

use crate::image::ImageU16;
use std::io::{self, BufWriter, Write};
use std::path::Path;

/// Writes a u16 image as an 8-bit binary PGM, windowed to `[lo, hi]`
/// (values outside clamp). Returns the window used.
pub fn write_pgm8(
    path: &Path,
    img: &ImageU16,
    window: Option<(u16, u16)>,
) -> io::Result<(u16, u16)> {
    let (lo, hi) = window.unwrap_or_else(|| img.min_max());
    let hi = hi.max(lo + 1);
    let mut f = BufWriter::new(std::fs::File::create(path)?);
    writeln!(f, "P5\n{} {}\n255", img.width(), img.height())?;
    let span = (hi - lo) as f32;
    let mut bytes = Vec::with_capacity(img.width() * img.height());
    for y in 0..img.height() {
        for &v in img.row(y) {
            let c = v.clamp(lo, hi);
            bytes.push((((c - lo) as f32 / span) * 255.0).round() as u8);
        }
    }
    f.write_all(&bytes)?;
    f.flush()?;
    Ok((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Image;

    /// Writes `img` windowed and returns the window and the 8-bit payload
    /// behind the checked header.
    fn written(name: &str, img: &ImageU16, window: Option<(u16, u16)>) -> ((u16, u16), Vec<u8>) {
        let dir = std::env::temp_dir().join("triplec_io_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let used = write_pgm8(&p, img, window).unwrap();
        let bytes = std::fs::read(&p).unwrap();
        let header = format!("P5\n{} {}\n255\n", img.width(), img.height());
        assert!(bytes.starts_with(header.as_bytes()));
        let px = bytes[header.len()..].to_vec();
        assert_eq!(px.len(), img.width() * img.height());
        (used, px)
    }

    #[test]
    fn pgm8_windows_and_round_trips_shape() {
        let img = Image::from_fn(8, 8, |x, _| (x * 1000) as u16);
        let ((lo, hi), px) = written("rt8.pgm", &img, None);
        assert_eq!((lo, hi), (0, 7000));
        // monotone gradient preserved
        for x in 1..8 {
            assert!(px[x] >= px[x - 1]);
        }
        assert_eq!(px[0], 0);
        assert_eq!(px[7], 255);
    }

    #[test]
    fn explicit_window_clamps() {
        let img = Image::from_vec(3, 1, vec![0u16, 500, 5000]);
        let (_, px) = written("win.pgm", &img, Some((100, 1000)));
        assert_eq!(px[0], 0); // clamped low
        assert_eq!(px[2], 255); // clamped high
    }

    #[test]
    fn flat_image_does_not_divide_by_zero() {
        let img = Image::filled(4, 4, 1234u16);
        let ((lo, hi), _) = written("flat.pgm", &img, None);
        assert!(hi > lo);
    }
}
