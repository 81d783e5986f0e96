//! X-ray detector noise model.
//!
//! Fluoroscopy runs at low dose, so quantum (photon-counting) noise
//! dominates: variance proportional to the signal. A smaller additive
//! electronic-noise floor is signal-independent. Both are approximated as
//! Gaussian, which is accurate for the photon counts of interest.

use imaging::image::ImageF32;
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

/// A standard normal sampler based on the Box-Muller transform, avoiding a
/// dependency on `rand_distr` (not in the sanctioned crate set).
#[derive(Debug, Clone, Copy, Default)]
struct StandardNormal;

impl Distribution<f32> for StandardNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
        loop {
            let u1: f32 = rng.gen();
            if u1 > f32::MIN_POSITIVE {
                let u2: f32 = rng.gen();
                return (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            }
        }
    }
}

/// Adds signal-dependent quantum noise plus electronic noise in place.
pub fn add_noise(img: &mut ImageF32, cfg: &NoiseConfig, rng: &mut impl Rng) {
    let normal = StandardNormal;
    for v in img.as_mut_slice() {
        let signal = v.max(0.0);
        let q_std = cfg.quantum_scale * signal.sqrt();
        let n1: f32 = normal.sample(rng);
        let n2: f32 = normal.sample(rng);
        *v = signal + q_std * n1 + cfg.electronic_std * n2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

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
        add_noise(&mut dark, &cfg, &mut rng);
        add_noise(&mut bright, &cfg, &mut rng);
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
        add_noise(&mut img, &NoiseConfig::default(), &mut rng);
        let mean = img.as_slice().iter().map(|&v| v as f64).sum::<f64>() / (128.0 * 128.0);
        assert!((mean - 1500.0).abs() < 3.0, "mean {mean}");
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mk = |seed| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut img = ImageF32::filled(16, 16, 1000.0);
            add_noise(&mut img, &NoiseConfig::default(), &mut rng);
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
            &mut img,
            &NoiseConfig {
                quantum_scale: 2.0,
                electronic_std: 1.0,
            },
            &mut rng,
        );
        // only the electronic floor remains
        assert!(std_of(&img) < 2.0);
    }
}
