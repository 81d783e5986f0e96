//! Exponentially Weighted Moving Average filter (Eq. 1 of the paper).
//!
//! `y(tk) = (1 - alpha) * y(tk-1) + alpha * x(tk)`
//!
//! The paper separates long-term low-frequency fluctuations of the
//! computation time from short-term high-frequency fluctuations and uses
//! this IIR filter as the low-pass branch: "As this IIR filter weights
//! recent inputs more heavily than long-term previous ones, it adapts more
//! quickly to the input signal compared to FIR filters" (Section 4).

/// EWMA filter state.
///
/// ```
/// use triplec::Ewma;
/// let mut filter = Ewma::new(0.25);
/// filter.update(100.0);               // first sample initializes
/// let y = filter.update(200.0);       // Eq. 1
/// assert!((y - 125.0).abs() < 1e-12); // 0.75*100 + 0.25*200
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// Creates a filter with smoothing factor `alpha` in `(0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        Self { alpha, value: None }
    }

    /// The smoothing factor.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current filtered value; `None` before the first sample.
    pub fn value(&self) -> Option<f64> {
        self.value
    }

    /// Current filtered value, or `default` before the first sample.
    pub fn value_or(&self, default: f64) -> f64 {
        self.value.unwrap_or(default)
    }

    /// Feeds a sample (Eq. 1) and returns the new filtered value. The first
    /// sample initializes the filter directly.
    pub fn update(&mut self, x: f64) -> f64 {
        let y = match self.value {
            None => x,
            Some(prev) => (1.0 - self.alpha) * prev + self.alpha * x,
        };
        self.value = Some(y);
        y
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.f64(self.alpha);
        w.opt_f64(self.value);
    }

    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        let alpha = r.finite_f64("ewma alpha")?;
        if !(alpha > 0.0 && alpha <= 1.0) {
            return Err(crate::snapshot::SnapshotError::Corrupt(
                "ewma alpha out of (0, 1]",
            ));
        }
        let value = r.opt_finite_f64("ewma value")?;
        Ok(Self { alpha, value })
    }
}

/// Splits a series into its low-frequency (EWMA) and high-frequency
/// (residual) parts: `x = lpf + hpf`. This is the decomposition shown for
/// the ridge-detection trace in Fig. 3.
pub fn decompose(series: &[f64], alpha: f64) -> (Vec<f64>, Vec<f64>) {
    let mut ewma = Ewma::new(alpha);
    let mut lpf = Vec::with_capacity(series.len());
    let mut hpf = Vec::with_capacity(series.len());
    for &x in series {
        // predict-then-update: the residual is measured against the filter
        // state *before* the sample is absorbed, which is exactly the
        // quantity a predictor has available at runtime.
        let base = ewma.value_or(x);
        hpf.push(x - base);
        lpf.push(base);
        ewma.update(x);
    }
    (lpf, hpf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initializes() {
        let mut e = Ewma::new(0.1);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(50.0), 50.0);
        assert_eq!(e.value(), Some(50.0));
    }

    #[test]
    fn update_follows_eq1() {
        let mut e = Ewma::new(0.25);
        e.update(100.0);
        let y = e.update(200.0);
        assert!((y - (0.75 * 100.0 + 0.25 * 200.0)).abs() < 1e-12);
    }

    #[test]
    fn converges_to_constant_input() {
        let mut e = Ewma::new(0.2);
        for _ in 0..200 {
            e.update(42.0);
        }
        assert!((e.value().unwrap() - 42.0).abs() < 1e-9);
    }

    #[test]
    fn tracks_step_change_geometrically() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        e.update(100.0); // 50
        e.update(100.0); // 75
        e.update(100.0); // 87.5
        assert!((e.value().unwrap() - 87.5).abs() < 1e-12);
    }

    #[test]
    fn alpha_one_is_passthrough() {
        let mut e = Ewma::new(1.0);
        e.update(10.0);
        assert_eq!(e.update(99.0), 99.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn zero_alpha_rejected() {
        let _ = Ewma::new(0.0);
    }

    #[test]
    fn decompose_sums_back_to_signal() {
        let series: Vec<f64> = (0..100)
            .map(|i| 30.0 + 10.0 * (i as f64 / 10.0).sin() + if i % 2 == 0 { 2.0 } else { -2.0 })
            .collect();
        let (lpf, hpf) = decompose(&series, 0.1);
        for i in 0..series.len() {
            assert!((lpf[i] + hpf[i] - series[i]).abs() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn decompose_separates_frequencies() {
        // slow sine + fast alternation: the LPF must carry the slow part,
        // the HPF the fast part
        let n = 400;
        let series: Vec<f64> = (0..n)
            .map(|i| {
                50.0 + 20.0 * (std::f64::consts::TAU * i as f64 / 200.0).sin()
                    + 3.0 * if i % 2 == 0 { 1.0 } else { -1.0 }
            })
            .collect();
        let (lpf, hpf) = decompose(&series, 0.15);
        // LPF variance is dominated by the slow component
        let var = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
        };
        // fast alternation should mostly sit in the HPF: consecutive HPF
        // samples anti-correlate
        let skip = 50; // let the filter settle
        let hpf_tail = &hpf[skip..];
        let flips = hpf_tail
            .windows(2)
            .filter(|w| w[0].signum() != w[1].signum())
            .count();
        assert!(
            flips > hpf_tail.len() / 2,
            "HPF does not alternate: {flips}/{}",
            hpf_tail.len()
        );
        assert!(var(&lpf[skip..]) > 50.0, "LPF lost the slow component");
    }
}
