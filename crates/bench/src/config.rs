//! Experiment configuration.
//!
//! Measured experiments render synthetic sequences at a configurable
//! geometry (default 256x256 so the whole suite runs in minutes on a
//! laptop; `--size 1024` reproduces the paper's full geometry). Analytic
//! experiments (Table 1, Fig. 2, Fig. 5) always use the paper's
//! 1024x1024 / 4 MB-L2 parameters — they cost nothing to evaluate.

use crate::fig6::MAX_STRIPE_VARIANTS;
use std::path::PathBuf;
use std::str::FromStr;

/// Configuration shared by the measured experiments.
#[derive(Debug, Clone)]
pub(crate) struct ExperimentConfig {
    /// Rendered frame edge length (frames are square).
    pub(crate) size: usize,
    /// Frame count of the long Fig. 3 trace.
    pub(crate) fig3_frames: usize,
    /// Frame count of the Fig. 7 dynamic run.
    pub(crate) fig7_frames: usize,
    /// Scale factor on corpus sizes (1.0 = the paper's 37 x ~52 frames).
    pub(crate) corpus_scale: f64,
    /// Stripe counts examined in Fig. 6.
    pub(crate) fig6_stripes: Vec<usize>,
    /// Directory the figures' series are written to as CSV (`--csv`).
    pub(crate) csv: Option<PathBuf>,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self {
            size: 256,
            fig3_frames: 600,
            fig7_frames: 200,
            corpus_scale: 1.0,
            fig6_stripes: vec![1, 2],
            csv: None,
        }
    }
}

/// Smallest frame edge the measured experiments accept: the Fig. 6 sweep
/// floors its ROI edge at 16 px and needs two distinct ROI sizes to fit a
/// line through.
const MIN_SIZE: usize = 17;

/// `value` parsed as `flag`'s type, or an error naming both.
fn parse<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} cannot parse `{value}`"))
}

impl ExperimentConfig {
    /// Parses `--size N`, `--frames N`, `--corpus-scale X`, `--stripes a,b`
    /// and `--csv DIR` from an argument list (unknown flags are ignored so the
    /// caller can route subcommands first). A known flag without a value, a
    /// value that does not parse, or one an experiment cannot run with is an
    /// error naming the flag, not a default or a panic further down.
    pub(crate) fn from_args(args: &[String]) -> Result<Self, String> {
        let mut cfg = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let flag = flag.as_str();
            if !matches!(
                flag,
                "--size" | "--frames" | "--corpus-scale" | "--stripes" | "--csv"
            ) {
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag {
                "--size" => cfg.size = parse(flag, value)?,
                "--frames" => {
                    cfg.fig3_frames = parse(flag, value)?;
                    cfg.fig7_frames = cfg.fig3_frames;
                }
                "--corpus-scale" => cfg.corpus_scale = parse(flag, value)?,
                "--stripes" => {
                    cfg.fig6_stripes = value
                        .split(',')
                        .map(|s| parse(flag, s))
                        .collect::<Result<_, _>>()?;
                }
                _ => cfg.csv = Some(PathBuf::from(value)),
            }
        }
        if cfg.size < MIN_SIZE {
            return Err(format!(
                "--size must be at least {MIN_SIZE} (got {})",
                cfg.size
            ));
        }
        if cfg.fig3_frames == 0 {
            return Err("--frames must be at least 1".into());
        }
        if !(cfg.corpus_scale.is_finite() && cfg.corpus_scale > 0.0) {
            return Err(format!(
                "--corpus-scale must be a positive number (got {})",
                cfg.corpus_scale
            ));
        }
        let stripes = &cfg.fig6_stripes;
        if stripes.len() > MAX_STRIPE_VARIANTS {
            return Err(format!(
                "--stripes takes at most {MAX_STRIPE_VARIANTS} counts (got {})",
                stripes.len()
            ));
        }
        if stripes.contains(&0) {
            return Err("--stripes counts must be positive".into());
        }
        if !stripes.contains(&1) {
            return Err("--stripes must include 1, the serial baseline of Fig. 6".into());
        }
        Ok(cfg)
    }

    /// The triplec geometry for model configuration at the experiment size.
    pub(crate) fn geometry(&self) -> triplec::FrameGeometry {
        triplec::FrameGeometry {
            width: self.size,
            height: self.size,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &[&str]) -> Result<ExperimentConfig, String> {
        let args: Vec<String> = s.iter().map(|s| s.to_string()).collect();
        ExperimentConfig::from_args(&args)
    }

    #[test]
    fn defaults_are_sane() {
        let c = ExperimentConfig::default();
        assert_eq!(c.size, 256);
        assert!(c.fig3_frames >= 100);
    }

    #[test]
    fn parses_size_and_frames() {
        let c = parse(&["--size", "128", "--frames", "50"]).unwrap();
        assert_eq!(c.size, 128);
        assert_eq!(c.fig3_frames, 50);
        assert_eq!(c.fig7_frames, 50);
    }

    #[test]
    fn parses_stripes_list() {
        let c = parse(&["--stripes", "1,2,4,8"]).unwrap();
        assert_eq!(c.fig6_stripes, vec![1, 2, 4, 8]);
    }

    #[test]
    fn ignores_unknown_flags() {
        let c = parse(&["fig3", "--whatever", "--size", "64"]).unwrap();
        assert_eq!(c.size, 64);
    }

    #[test]
    fn corpus_scale_parsed() {
        let c = parse(&["--corpus-scale", "0.25"]).unwrap();
        assert!((c.corpus_scale - 0.25).abs() < 1e-12);
    }

    #[test]
    fn no_flags_is_the_default_and_valid() {
        let c = parse(&["fig6"]).unwrap();
        assert_eq!(c.size, ExperimentConfig::default().size);
        assert_eq!(c.fig6_stripes, vec![1, 2]);
    }

    #[test]
    fn rejects_sizes_too_small_to_sweep() {
        for size in ["0", "1", "16"] {
            let err = parse(&["fig6", "--size", size]).unwrap_err();
            assert!(err.contains("--size"), "{err}");
        }
        assert_eq!(parse(&["--size", "17"]).unwrap().size, 17);
    }

    #[test]
    fn rejects_more_stripe_variants_than_a_sweep_point_holds() {
        let err = parse(&["--stripes", "1,2,3,4,5,6,7,8,9"]).unwrap_err();
        assert!(err.contains("at most 8"), "{err}");
        assert_eq!(
            parse(&["--stripes", "1,2,3,4,5,6,7,8"])
                .unwrap()
                .fig6_stripes
                .len(),
            8
        );
    }

    #[test]
    fn rejects_a_zero_stripe_count() {
        let err = parse(&["--stripes", "0,1,2"]).unwrap_err();
        assert!(err.contains("positive"), "{err}");
        assert!(parse(&["--stripes", "0,2"]).is_err());
    }

    #[test]
    fn rejects_a_stripe_list_without_the_serial_baseline() {
        let err = parse(&["--stripes", "2,4"]).unwrap_err();
        assert!(err.contains("include 1"), "{err}");
        // the baseline may sit anywhere in the list
        assert_eq!(
            parse(&["--stripes", "2,1"]).unwrap().fig6_stripes,
            vec![2, 1]
        );
    }

    #[test]
    fn parses_the_csv_directory() {
        let c = parse(&["fig7", "--csv", "/tmp/x"]).unwrap();
        assert_eq!(c.csv, Some(PathBuf::from("/tmp/x")));
        assert_eq!(parse(&["fig7"]).unwrap().csv, None);
    }

    #[test]
    fn rejects_a_known_flag_without_a_value() {
        for flag in ["--size", "--frames", "--corpus-scale", "--stripes", "--csv"] {
            let err = parse(&["fig3", flag]).unwrap_err();
            assert_eq!(err, format!("{flag} needs a value"));
        }
    }

    #[test]
    fn rejects_a_value_that_does_not_parse() {
        for (flag, value) in [
            ("--size", "abc"),
            ("--frames", "-3"),
            ("--corpus-scale", "half"),
            ("--stripes", "1,x,4"),
            ("--stripes", "1,,2"),
        ] {
            let err = parse(&["fig6", flag, value]).unwrap_err();
            assert!(err.starts_with(flag), "{flag} {value}: {err}");
        }
    }

    #[test]
    fn rejects_values_an_experiment_cannot_run_with() {
        let err = parse(&["--frames", "0"]).unwrap_err();
        assert!(err.contains("--frames"), "{err}");
        for scale in ["0", "-0.5", "NaN", "inf"] {
            let err = parse(&["--corpus-scale", scale]).unwrap_err();
            assert!(err.contains("--corpus-scale"), "{scale}: {err}");
        }
    }
}
