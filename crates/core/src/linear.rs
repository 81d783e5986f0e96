//! Linear growth model of the ROI-size dependence (Eq. 3).
//!
//! "Processing-time statistics for different Region-Of-Interest (ROI)
//! sizes show that the RDG task has a linear dependency on the size of the
//! ROI. ... This function is specified by `y = 0.067 * x + 20.6`."
//! (Section 4, Fig. 6 — with x in the paper's ROI-pixel units and y in ms
//! on the paper's platform; we fit our own coefficients from measurements.)

/// A fitted line `y = slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearModel {
    /// Slope (ms per ROI pixel in the Fig. 6 use).
    pub slope: f64,
    /// Intercept (fixed per-frame overhead, ms).
    pub intercept: f64,
}

impl LinearModel {
    /// Evaluates the model.
    pub fn eval(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }

    /// Least-squares fit through `(x, y)` points. Panics on fewer than two
    /// distinct x values.
    pub fn fit(points: &[(f64, f64)]) -> Self {
        assert!(points.len() >= 2, "need at least two points");
        let n = points.len() as f64;
        let sx: f64 = points.iter().map(|p| p.0).sum();
        let sy: f64 = points.iter().map(|p| p.1).sum();
        let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
        let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
        let denom = n * sxx - sx * sx;
        assert!(denom.abs() > 1e-12, "x values must not be all equal");
        let slope = (n * sxy - sx * sy) / denom;
        let intercept = (sy - slope * sx) / n;
        Self { slope, intercept }
    }

    /// Residuals `y - model(x)` (the detrended series handed to the Markov
    /// state generation for RDG ROI).
    pub fn residuals(&self, points: &[(f64, f64)]) -> Vec<f64> {
        points.iter().map(|p| p.1 - self.eval(p.0)).collect()
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.f64(self.slope);
        w.f64(self.intercept);
    }

    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(Self {
            slope: r.finite_f64("linear slope")?,
            intercept: r.finite_f64("linear intercept")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..20).map(|i| (i as f64, 3.0 * i as f64 + 7.0)).collect();
        let m = LinearModel::fit(&pts);
        assert!((m.slope - 3.0).abs() < 1e-9);
        assert!((m.intercept - 7.0).abs() < 1e-9);
        assert!(m.residuals(&pts).iter().all(|e| e.abs() < 1e-9));
    }

    #[test]
    fn noisy_line_fit_close() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let pts: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let x = i as f64;
                (x, 0.067 * x + 20.6 + rng.gen_range(-2.0..2.0))
            })
            .collect();
        let m = LinearModel::fit(&pts);
        assert!((m.slope - 0.067).abs() < 0.005, "slope {}", m.slope);
        assert!(
            (m.intercept - 20.6).abs() < 1.5,
            "intercept {}",
            m.intercept
        );
        // R^2 = 1 - ss_res / ss_tot above 0.9
        let my = pts.iter().map(|p| p.1).sum::<f64>() / pts.len() as f64;
        let ss_tot: f64 = pts.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
        let ss_res: f64 = m.residuals(&pts).iter().map(|e| e * e).sum();
        assert!(ss_res < 0.1 * ss_tot, "R^2 {}", 1.0 - ss_res / ss_tot);
    }

    #[test]
    fn residuals_are_zero_mean_for_ls_fit() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                (
                    i as f64,
                    2.0 * i as f64 + if i % 2 == 0 { 1.0 } else { -1.0 },
                )
            })
            .collect();
        let m = LinearModel::fit(&pts);
        let res = m.residuals(&pts);
        let mean: f64 = res.iter().sum::<f64>() / res.len() as f64;
        assert!(mean.abs() < 1e-9, "residual mean {mean}");
    }

    #[test]
    #[should_panic(expected = "all equal")]
    fn degenerate_x_rejected() {
        let _ = LinearModel::fit(&[(1.0, 2.0), (1.0, 3.0)]);
    }
}
