//! X-ray detector noise model.
//!
//! Fluoroscopy runs at low dose, so quantum (photon-counting) noise
//! dominates: variance proportional to the signal. A smaller additive
//! electronic-noise floor is signal-independent. Both are approximated as
//! Gaussian, which is accurate for the photon counts of interest.

use imaging::image::Roi;
use rand::distributions::Distribution;
use rand::Rng;

/// Noise model parameters.
#[derive(Debug, Clone)]
pub struct NoiseConfig {
    /// Quantum noise scale: std = `quantum_scale` * sqrt(signal).
    pub quantum_scale: f32,
    /// Electronic noise floor, std in detector counts.
    pub electronic_std: f32,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            quantum_scale: 1.2,
            electronic_std: 4.0,
        }
    }
}

/// The two uniforms one standard normal is made from, drawn in the
/// sampler's order: `u1` again for as long as it is not positive (its top
/// 24 bits were zero, about one draw in 2²⁴), then `u2`. The sampler and
/// the band skip in [`band_rngs`] both draw through this, so they consume
/// the same draws.
#[inline(always)]
fn normal_uniforms<R: Rng + ?Sized>(rng: &mut R) -> (f32, f32) {
    loop {
        let u1: f32 = rng.gen();
        if u1 > f32::MIN_POSITIVE {
            return (u1, rng.gen());
        }
    }
}

/// A standard normal sampler based on the Box-Muller transform, avoiding a
/// dependency on `rand_distr` (not in the sanctioned crate set).
#[derive(Debug, Clone, Copy, Default)]
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        let (u1, u2) = normal_uniforms(rng);
        (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
    }
}

/// Adds signal-dependent quantum noise plus electronic noise in place to
/// `pixels`, in order, two normals per pixel: a whole image, or one row
/// band of it from the generator state [`band_rngs`] gives that band.
pub(crate) fn add_noise(pixels: &mut [f32], cfg: &NoiseConfig, rng: &mut impl Rng) {
    let normal = StandardNormal;
    for v in pixels {
        let signal = v.max(0.0);
        let q_std = cfg.quantum_scale * signal.sqrt();
        let n1: f32 = normal.sample(rng);
        let n2: f32 = normal.sample(rng);
        *v = signal + q_std * n1 + cfg.electronic_std * n2;
    }
}

/// The generator as [`add_noise`] finds it at the first pixel of each of
/// `parts`, row bands that tile an image top to bottom: `rng` itself for
/// the first band, and for each later one `rng` advanced past the draws of
/// every pixel above it. So band `i`, noised from entry `i`, gets the bits a
/// single pass over the whole image gives it.
pub(crate) fn band_rngs<R: Rng + Clone>(mut rng: R, parts: &[Roi]) -> Vec<R> {
    let Some((_, above_last)) = parts.split_last() else {
        return Vec::new();
    };
    let mut states = Vec::with_capacity(parts.len());
    for part in above_last {
        states.push(rng.clone());
        for _ in 0..2 * part.area() {
            normal_uniforms(&mut rng);
        }
    }
    states.push(rng);
    states
}

#[cfg(test)]
mod tests {
    use super::*;
    use imaging::image::ImageF32;
    use rand::{RngCore, SeedableRng};

    fn std_of(img: &ImageF32) -> f64 {
        let n = img.as_slice().len() as f64;
        let mean = img.as_slice().iter().map(|&v| v as f64).sum::<f64>() / n;
        let var = img
            .as_slice()
            .iter()
            .map(|&v| (v as f64 - mean) * (v as f64 - mean))
            .sum::<f64>()
            / n;
        var.sqrt()
    }

    #[test]
    fn normal_sampler_has_unit_moments() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let normal = StandardNormal;
        let n = 20000;
        let samples: Vec<f32> = (0..n).map(|_| normal.sample(&mut rng)).collect();
        let mean = samples.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        let var = samples
            .iter()
            .map(|&v| (v as f64 - mean).powi(2))
            .sum::<f64>()
            / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn noise_std_scales_with_signal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let cfg = NoiseConfig {
            quantum_scale: 1.5,
            electronic_std: 1.0,
        };
        let mut dark = ImageF32::filled(64, 64, 100.0);
        let mut bright = ImageF32::filled(64, 64, 3000.0);
        add_noise(dark.as_mut_slice(), &cfg, &mut rng);
        add_noise(bright.as_mut_slice(), &cfg, &mut rng);
        let sd = std_of(&dark);
        let sb = std_of(&bright);
        // expected: 1.5*sqrt(100)=15 vs 1.5*sqrt(3000)≈82
        assert!(sb > 3.0 * sd, "dark {sd} bright {sb}");
        assert!((sd - 15.0).abs() < 4.0, "dark std {sd}");
    }

    #[test]
    fn noise_preserves_mean() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut img = ImageF32::filled(128, 128, 1500.0);
        add_noise(img.as_mut_slice(), &NoiseConfig::default(), &mut rng);
        let mean = img.as_slice().iter().map(|&v| v as f64).sum::<f64>() / (128.0 * 128.0);
        assert!((mean - 1500.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut img = ImageF32::filled(16, 16, 1000.0);
            add_noise(img.as_mut_slice(), &NoiseConfig::default(), &mut rng);
            img
        };
        assert_eq!(mk(7), mk(7));
        assert_ne!(mk(7), mk(8));
    }

    #[test]
    fn negative_input_treated_as_zero_signal() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut img = ImageF32::filled(32, 32, -50.0);
        add_noise(
            img.as_mut_slice(),
            &NoiseConfig {
                quantum_scale: 2.0,
                electronic_std: 1.0,
            },
            &mut rng,
        );
        // only the electronic floor remains
        assert!(std_of(&img) < 2.0);
    }

    /// A generator that counts its draws and returns a zero-topped draw
    /// (a `u1` of 0, redrawn by the sampler) at each of `zeros`.
    #[derive(Clone)]
    struct Scripted {
        drawn: usize,
        zeros: &'static [usize],
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let k = self.drawn;
            self.drawn += 1;
            let bits = (k as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63;
            if self.zeros.contains(&k) {
                bits >> 24
            } else {
                bits
            }
        }
    }

    #[test]
    fn band_skips_consume_what_the_sampler_consumes() {
        let (w, h) = (7, 9);
        // draws 0–3 make pixel 0's two normals; 10 and 11 are u1 draws, so
        // pixel 2's second normal draws its u1 three times, and 150 is the
        // u1 of pixel 37, in a lower band at every band count above one
        let rng = Scripted {
            drawn: 0,
            zeros: &[10, 11, 150],
        };
        let cfg = NoiseConfig::default();
        let whole = ImageF32::from_fn(w, h, |x, y| 100.0 * (x + w * y) as f32);
        let mut serial = whole.clone();
        let mut end = rng.clone();
        add_noise(serial.as_mut_slice(), &cfg, &mut end);
        assert_eq!(end.drawn, 4 * w * h + 3, "every scripted zero redraws a u1");
        for bands in 1..=4 {
            let parts = Roi::full(w, h).stripes(bands);
            let mut states = band_rngs(rng.clone(), &parts);
            let mut banded = whole.clone();
            for (i, rows) in banded.row_bands(&parts).enumerate() {
                add_noise(rows, &cfg, &mut states[i]);
                // the skip to the next band stopped where this band's
                // sampler stops
                let next = states.get(i + 1).map_or(end.drawn, |s| s.drawn);
                assert_eq!(states[i].drawn, next, "{bands} bands, band {i}");
            }
            assert_eq!(banded, serial, "{bands} bands");
        }
    }
}
