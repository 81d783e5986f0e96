//! Per-frame content scripting.
//!
//! The application's dynamics come from the image content: how much
//! contrast agent fills the vessels (drives the RDG switch and the RDG
//! load), whether the device is in view (drives the "ROI ESTIMATED"
//! switch), and scene disturbances such as panning or a contrast bolus
//! (drive registration failures). The script combines deterministic
//! episodes with a slow AR(1) drift so the resulting computation-time
//! series has both the long-term structural and short-term stochastic
//! fluctuations the paper's model separates (Section 4).

use rand::Rng;

/// A scripted episode during which the device is out of view.
#[derive(Debug, Clone, Copy)]
pub struct HiddenEpisode {
    /// First frame of the episode.
    pub start: usize,
    /// Number of frames.
    pub len: usize,
}

/// Parameters of the content script.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// Baseline vessel contrast factor in `[0, 1]`.
    pub base_contrast: f64,
    /// Amplitude of the slow contrast drift (breathing of the contrast
    /// agent column), in `[0, 1]`.
    pub drift_amp: f64,
    /// Period of the slow drift, frames.
    pub drift_period: f64,
    /// AR(1) pole of the stochastic contrast component (0 = white noise,
    /// close to 1 = long correlation).
    pub ar_pole: f64,
    /// Standard deviation of the AR(1) innovations.
    pub ar_std: f64,
    /// Contrast-bolus episodes: frames where injected contrast makes the
    /// vessel tree strongly dominant.
    pub bolus: Vec<HiddenEpisode>,
    /// Episodes during which the device is hidden (no markers in view).
    pub hidden: Vec<HiddenEpisode>,
    /// Episodes of table panning (registration-breaking motion).
    pub panning: Vec<HiddenEpisode>,
    /// Panning speed, pixels/frame.
    pub pan_speed: f64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            base_contrast: 0.45,
            drift_amp: 0.25,
            drift_period: 180.0,
            ar_pole: 0.9,
            ar_std: 0.05,
            bolus: vec![],
            hidden: vec![],
            panning: vec![],
            pan_speed: 8.0,
        }
    }
}

fn in_episode(episodes: &[HiddenEpisode], frame: usize) -> bool {
    episodes
        .iter()
        .any(|e| frame >= e.start && frame < e.start + e.len)
}

/// The evaluated content state of one frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContentState {
    /// Vessel contrast factor in `[0, 1.5]`; > ~0.8 means a bolus.
    pub vessel_contrast: f64,
    /// Whether the device (markers) is in view.
    pub device_visible: bool,
    /// Additional panning displacement accumulated this frame, pixels.
    pub pan_dx: f64,
    /// Whether this frame is inside a panning episode.
    pub panning: bool,
}

/// Sequential evaluator of the content script (owns the AR(1) state).
#[derive(Debug, Clone)]
pub struct ScenarioProcess {
    cfg: ScenarioConfig,
    ar_state: f64,
    accumulated_pan: f64,
}

impl ScenarioProcess {
    /// Creates the process for a given script.
    pub fn new(cfg: ScenarioConfig) -> Self {
        Self {
            cfg,
            ar_state: 0.0,
            accumulated_pan: 0.0,
        }
    }

    /// Advances to frame `frame` and returns its content state. Must be
    /// called with consecutive frame indices (the AR state is sequential).
    pub fn step(&mut self, frame: usize, rng: &mut impl Rng) -> ContentState {
        // AR(1): x_k = pole * x_{k-1} + eps
        let eps: f64 = rng.gen_range(-1.0..1.0) * self.cfg.ar_std * 1.732; // uniform, same std
        self.ar_state = self.cfg.ar_pole * self.ar_state + eps;

        let drift = self.cfg.drift_amp
            * (std::f64::consts::TAU * frame as f64 / self.cfg.drift_period).sin();
        let mut contrast = (self.cfg.base_contrast + drift + self.ar_state).clamp(0.0, 1.0);
        if in_episode(&self.cfg.bolus, frame) {
            contrast = (contrast + 0.8).min(1.5);
        }

        let panning = in_episode(&self.cfg.panning, frame);
        if panning {
            self.accumulated_pan += self.cfg.pan_speed;
        }

        ContentState {
            vessel_contrast: contrast,
            device_visible: !in_episode(&self.cfg.hidden, frame),
            pan_dx: self.accumulated_pan,
            panning,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn default_script_keeps_device_visible() {
        let mut p = ScenarioProcess::new(ScenarioConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for f in 0..100 {
            let s = p.step(f, &mut rng);
            assert!(s.device_visible);
            assert!(!s.panning);
            assert!(s.vessel_contrast >= 0.0 && s.vessel_contrast <= 1.5);
        }
    }

    #[test]
    fn hidden_episode_hides_device() {
        let cfg = ScenarioConfig {
            hidden: vec![HiddenEpisode { start: 10, len: 5 }],
            ..Default::default()
        };
        let mut p = ScenarioProcess::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let states: Vec<ContentState> = (0..20).map(|f| p.step(f, &mut rng)).collect();
        assert!(states[9].device_visible);
        assert!(!states[10].device_visible);
        assert!(!states[14].device_visible);
        assert!(states[15].device_visible);
    }

    #[test]
    fn bolus_boosts_contrast() {
        let cfg = ScenarioConfig {
            bolus: vec![HiddenEpisode { start: 5, len: 3 }],
            ar_std: 0.0,
            drift_amp: 0.0,
            ..Default::default()
        };
        let mut p = ScenarioProcess::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let states: Vec<ContentState> = (0..10).map(|f| p.step(f, &mut rng)).collect();
        assert!(states[6].vessel_contrast > states[2].vessel_contrast + 0.5);
    }

    #[test]
    fn panning_accumulates_displacement() {
        let cfg = ScenarioConfig {
            panning: vec![HiddenEpisode { start: 2, len: 4 }],
            pan_speed: 5.0,
            ..Default::default()
        };
        let mut p = ScenarioProcess::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let states: Vec<ContentState> = (0..10).map(|f| p.step(f, &mut rng)).collect();
        assert_eq!(states[1].pan_dx, 0.0);
        assert_eq!(states[5].pan_dx, 20.0);
        // displacement persists after the episode
        assert_eq!(states[9].pan_dx, 20.0);
        assert!(states[3].panning && !states[7].panning);
    }

    #[test]
    fn contrast_has_long_term_correlation() {
        // autocorrelation of the contrast series at lag 1 must be high when
        // the AR pole is high (this is the property the Markov/EWMA split
        // of the paper relies on)
        let cfg = ScenarioConfig {
            ar_pole: 0.95,
            ar_std: 0.05,
            drift_amp: 0.0,
            ..Default::default()
        };
        let mut p = ScenarioProcess::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..500)
            .map(|f| p.step(f, &mut rng).vessel_contrast)
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let cov1 = xs
            .windows(2)
            .map(|w| (w[0] - mean) * (w[1] - mean))
            .sum::<f64>()
            / (xs.len() - 1) as f64;
        let rho1 = cov1 / var;
        assert!(rho1 > 0.7, "lag-1 autocorrelation {rho1}");
    }
}
