//! Per-task computation-time predictors (Table 2(b)).
//!
//! | Task | Prediction model |
//! |---|---|
//! | RDG FULL | Eq. 1 (EWMA) + Markov chain |
//! | RDG ROI | Eq. 3 (linear ROI growth) + Markov chain |
//! | MKX EXT | constant |
//! | CPLS SEL | Eq. 1 + Markov chain |
//! | REG | constant |
//! | ROI EST | constant |
//! | GW EXT | Eq. 1 + Markov chain |
//! | ENH | constant |
//! | ZOOM | constant |

use crate::ewma::Ewma;
use crate::linear::LinearModel;
use crate::markov::MarkovChain;
use crate::quantize::Quantizer;

/// Covariates available to a predictor at prediction time.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PredictContext {
    /// Size of the region of interest the task will process, kilopixels.
    pub roi_kpixels: f64,
}

/// A predictive distribution for one upcoming execution.
///
/// Every predictor produces one per call: the point estimate plus
/// the p50/p95/p99 tail of the predicted computation time. Quantiles are
/// monotone by construction ([`Prediction::from_quantiles`] clamps), so
/// schedulers may cost any quantile without re-validating the
/// distribution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Prediction {
    /// Expected computation time, ms (the point estimate).
    pub mean_ms: f64,
    /// Median of the predicted distribution, ms.
    pub p50_ms: f64,
    /// 95th percentile, ms.
    pub p95_ms: f64,
    /// 99th percentile, ms.
    pub p99_ms: f64,
}

impl Prediction {
    /// A degenerate (point-mass) distribution: every quantile equals the
    /// point estimate.
    pub fn point(value_ms: f64) -> Self {
        let v = value_ms.max(0.0);
        Self {
            mean_ms: v,
            p50_ms: v,
            p95_ms: v,
            p99_ms: v,
        }
    }

    /// Builds a distribution from raw quantile estimates, clamping each
    /// value non-negative and enforcing `p50 <= p95 <= p99`.
    pub fn from_quantiles(mean_ms: f64, p50_ms: f64, p95_ms: f64, p99_ms: f64) -> Self {
        let p50 = p50_ms.max(0.0);
        let p95 = p95_ms.max(p50);
        let p99 = p99_ms.max(p95);
        Self {
            mean_ms: mean_ms.max(0.0),
            p50_ms: p50,
            p95_ms: p95,
            p99_ms: p99,
        }
    }

    /// The `q`-quantile of the distribution, interpolated piecewise-
    /// linearly between the stored p50/p95/p99 anchors (clamped to p50
    /// below the median and to p99 above the 99th).
    pub fn quantile(&self, q: f64) -> f64 {
        let q = q.clamp(0.0, 1.0);
        if q <= 0.5 {
            self.p50_ms
        } else if q <= 0.95 {
            let t = (q - 0.5) / 0.45;
            self.p50_ms + t * (self.p95_ms - self.p50_ms)
        } else if q <= 0.99 {
            let t = (q - 0.95) / 0.04;
            self.p95_ms + t * (self.p99_ms - self.p95_ms)
        } else {
            self.p99_ms
        }
    }

    /// Whether every statistic is finite.
    pub fn is_finite(&self) -> bool {
        self.to_bits()
            .iter()
            .all(|&bits| f64::from_bits(bits).is_finite())
    }

    /// Lossless bit pattern of the four summary statistics, for
    /// bit-identity assertions (snapshot/restore and clone contracts).
    /// Two predictions compare bit-equal iff every field is bit-equal,
    /// which is stricter than `==` around signed zeros and NaN payloads.
    pub fn to_bits(&self) -> [u64; 4] {
        [
            self.mean_ms.to_bits(),
            self.p50_ms.to_bits(),
            self.p95_ms.to_bits(),
            self.p99_ms.to_bits(),
        ]
    }
}

impl std::fmt::Display for Prediction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:.3} ms (p50 {:.3} / p95 {:.3} / p99 {:.3})",
            self.mean_ms, self.p50_ms, self.p95_ms, self.p99_ms
        )
    }
}

/// Default capacity of a predictor's [`ResidualWindow`].
const RESIDUAL_WINDOW: usize = 64;

/// Bounded ring of recent prediction residuals with empirical
/// nearest-rank quantiles.
///
/// This is the "error-tracked" distribution state behind [`Prediction`]
/// tails: the Markov chain only captures the quantized short-term
/// fluctuation, so each predictor additionally tracks the error of its
/// *own* full prediction and widens tail quantiles to cover whichever
/// estimate is larger.
#[derive(Debug, Clone, PartialEq)]
struct ResidualWindow {
    cap: usize,
    buf: Vec<f64>,
    pos: usize,
}

impl ResidualWindow {
    /// An empty window holding at most `cap` residuals.
    fn new(cap: usize) -> Self {
        assert!(cap > 0, "residual window needs capacity");
        Self {
            cap,
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Records a residual, evicting the oldest once full.
    fn push(&mut self, residual: f64) {
        if self.buf.len() < self.cap {
            self.buf.push(residual);
        } else {
            self.buf[self.pos] = residual;
        }
        self.pos = (self.pos + 1) % self.cap;
    }

    /// Whether no residual has been recorded yet.
    fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Nearest-rank `q`-quantile of the held residuals; `0.0` when empty.
    fn quantile(&self, q: f64) -> f64 {
        platform::metrics::percentile(&self.buf, q)
    }

    fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.u32(self.cap as u32);
        w.f64_slice(&self.buf);
        w.u32(self.pos as u32);
    }

    fn decode(r: &mut crate::snapshot::Reader<'_>) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Corrupt;
        let cap = r.u32()? as usize;
        if cap == 0 || cap > (1 << 16) {
            return Err(Corrupt("residual window capacity"));
        }
        let buf = r.f64_vec("residual window")?;
        if buf.len() > cap || buf.iter().any(|x| !x.is_finite()) {
            return Err(Corrupt("residual window contents"));
        }
        let pos = r.u32()? as usize;
        let valid_pos = if buf.len() < cap {
            pos == buf.len() % cap
        } else {
            pos < cap
        };
        if !valid_pos {
            return Err(Corrupt("residual window position"));
        }
        Ok(Self { cap, buf, pos })
    }

    /// Seeds the window with the tail of a residual series (training).
    fn seed(cap: usize, residuals: &[f64]) -> Self {
        let mut w = Self::new(cap);
        for &r in &residuals[residuals.len().saturating_sub(cap)..] {
            w.push(r);
        }
        w
    }
}

/// Constant-time model for tasks with stable cost (MKX, REG, ROI EST, ENH,
/// ZOOM in Table 2(b)). The constant carries an error-tracked
/// window of recent residuals so even "stable" tasks report tail quantiles.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstantPredictor {
    value_ms: f64,
    errors: ResidualWindow,
    /// When true, observed residuals keep refreshing the error window at
    /// runtime; the constant itself never moves.
    online: bool,
}

impl ConstantPredictor {
    /// Creates the predictor with a fixed cost.
    pub fn new(value_ms: f64) -> Self {
        Self {
            value_ms,
            errors: ResidualWindow::new(RESIDUAL_WINDOW),
            online: false,
        }
    }

    /// Fits the constant as the mean of a training series; the series'
    /// deviations from the mean seed the residual window.
    pub fn train(series: &[f64]) -> Self {
        let value_ms = crate::stats::mean(series);
        let residuals: Vec<f64> = series.iter().map(|&x| x - value_ms).collect();
        Self {
            value_ms,
            errors: ResidualWindow::seed(RESIDUAL_WINDOW, &residuals),
            online: false,
        }
    }

    /// Enables or disables online refresh of the residual window.
    pub(crate) fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Whether online residual refresh is enabled.
    pub(crate) fn online(&self) -> bool {
        self.online
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.f64(self.value_ms);
        self.errors.encode(w);
        w.bool(self.online);
    }

    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        Ok(Self {
            value_ms: r.finite_f64("constant value")?,
            errors: ResidualWindow::decode(r)?,
            online: r.bool("constant online flag")?,
        })
    }

    /// Predictive distribution of the next execution time: the constant,
    /// with tails from the error-tracked residual window.
    pub fn predict(&self, _ctx: &PredictContext) -> Prediction {
        let m = self.value_ms;
        if self.errors.is_empty() {
            return Prediction::point(m);
        }
        Prediction::from_quantiles(
            m,
            m + self.errors.quantile(0.5),
            m + self.errors.quantile(0.95),
            m + self.errors.quantile(0.99),
        )
    }

    /// Feeds the measured execution time after the task ran.
    pub fn observe(&mut self, actual_ms: f64, _ctx: &PredictContext) {
        self.errors.push(actual_ms - self.value_ms);
    }

    /// Model summary string for the Table 2(b) report.
    pub fn model_name(&self) -> String {
        format!("{:.1}", self.value_ms)
    }
}

/// EWMA + Markov predictor: the EWMA output predicts the long-term
/// behaviour; a Markov chain over quantized residuals predicts the
/// short-term fluctuation on top (Section 4).
///
/// ```
/// use triplec::{EwmaMarkovPredictor, PredictContext};
/// let history: Vec<f64> = (0..200).map(|i| 40.0 + (i % 5) as f64).collect();
/// let mut p = EwmaMarkovPredictor::train(&history, 0.2, 16, "RDG");
/// let ctx = PredictContext::default();
/// p.observe(42.0, &ctx);
/// let next = p.predict(&ctx);
/// assert!(next.mean_ms > 35.0 && next.mean_ms < 50.0);
/// assert!(next.p99_ms >= next.mean_ms - 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EwmaMarkovPredictor {
    ewma: Ewma,
    quantizer: Quantizer,
    chain: MarkovChain,
    last_state: Option<usize>,
    /// When true, observed transitions keep training the chain at runtime
    /// ("on-line model training", Section 6).
    online: bool,
    label: &'static str,
    /// Recent one-step prediction errors (actual − predicted mean).
    errors: ResidualWindow,
}

impl EwmaMarkovPredictor {
    /// Trains the predictor from a computation-time series.
    ///
    /// `alpha` is the EWMA factor; `max_states` caps the paper's `2M` state
    /// heuristic.
    pub fn train(series: &[f64], alpha: f64, max_states: usize, label: &'static str) -> Self {
        assert!(!series.is_empty(), "cannot train on an empty series");
        let (_lpf, residuals) = crate::ewma::decompose(series, alpha);
        let states = Quantizer::paper_state_count(&residuals, max_states);
        let quantizer = Quantizer::train(&residuals, states);
        let seq: Vec<usize> = residuals.iter().map(|&r| quantizer.state_of(r)).collect();
        let chain = MarkovChain::estimate(&seq, quantizer.states());
        // warm-start from the end of the training series: a freshly
        // trained predictor forecasts the training regime immediately
        // (essential for frozen models, which never observe at runtime)
        let mut ewma = Ewma::new(alpha);
        for &x in series {
            ewma.update(x);
        }
        Self {
            ewma,
            quantizer,
            chain,
            last_state: seq.last().copied(),
            online: false,
            label,
            errors: ResidualWindow::seed(RESIDUAL_WINDOW, &residuals),
        }
    }

    /// The point estimate with the state the predictor holds right now
    /// (EWMA base plus expected Markov fluctuation).
    fn mean_estimate(&self) -> f64 {
        let base = self.ewma.value_or(0.0);
        let fluctuation = match self.last_state {
            Some(s) => self
                .chain
                .expected_next(s, |j| self.quantizer.representative(j)),
            None => 0.0,
        };
        (base + fluctuation).max(0.0)
    }

    /// The `q`-quantile estimate: the wider of the chain's quantile over
    /// quantized residual states and the error-tracked residual quantile.
    fn quantile_estimate(&self, q: f64) -> f64 {
        let base = self.ewma.value_or(0.0);
        let chain_q = match self.last_state {
            Some(s) => self
                .chain
                .quantile_next(s, q, |j| self.quantizer.representative(j)),
            None => 0.0,
        };
        let via_chain = (base + chain_q).max(0.0);
        if self.errors.is_empty() {
            return via_chain;
        }
        let via_errors = (self.mean_estimate() + self.errors.quantile(q)).max(0.0);
        via_chain.max(via_errors)
    }

    /// Enables or disables online adaptation of the transition matrix
    /// ("on-line model training", Section 6). Off, observations still
    /// move the EWMA and the residual window but never the chain.
    pub fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Whether online adaptation is enabled.
    pub(crate) fn online(&self) -> bool {
        self.online
    }

    /// The task name the predictor was trained as.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    /// The residual Markov chain (for the Table 2(a) report).
    pub fn chain(&self) -> &MarkovChain {
        &self.chain
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        self.ewma.encode(w);
        self.quantizer.encode(w);
        self.chain.encode(w);
        w.opt_usize(self.last_state);
        w.bool(self.online);
        w.str(self.label);
        self.errors.encode(w);
    }

    /// Decodes a state of the predictor trained as `label`.
    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
        label: &'static str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Corrupt;
        let ewma = Ewma::decode(r)?;
        let quantizer = Quantizer::decode(r)?;
        let chain = MarkovChain::decode(r)?;
        if chain.states() != quantizer.states() {
            return Err(Corrupt("chain/quantizer state count mismatch"));
        }
        let last_state = r.opt_usize("ewma-markov last state")?;
        if last_state.is_some_and(|s| s >= chain.states()) {
            return Err(Corrupt("last state out of range"));
        }
        let online = r.bool("ewma-markov online flag")?;
        let label = r.label(label, "ewma-markov label")?;
        let errors = ResidualWindow::decode(r)?;
        Ok(Self {
            ewma,
            quantizer,
            chain,
            last_state,
            online,
            label,
            errors,
        })
    }

    /// Predictive distribution of the next execution time.
    ///
    /// The mean is the paper's point estimate (Eq. 1 plus the Markov
    /// fluctuation term); the tail quantiles come from the chain's
    /// [`quantile_next`](crate::markov::MarkovChain::quantile_next) and the
    /// error-tracked window of recent residuals, whichever is wider.
    /// Scheduling against `p99_ms` instead of `mean_ms` trades
    /// average-case packing density for fewer budget overruns.
    pub fn predict(&self, _ctx: &PredictContext) -> Prediction {
        Prediction::from_quantiles(
            self.mean_estimate(),
            self.quantile_estimate(0.5),
            self.quantile_estimate(0.95),
            self.quantile_estimate(0.99),
        )
    }

    /// Feeds the measured execution time after the task ran.
    pub fn observe(&mut self, actual_ms: f64, _ctx: &PredictContext) {
        // only meaningful once the filter is warm: the cold mean is 0
        if self.ewma.value().is_some() {
            self.errors.push(actual_ms - self.mean_estimate());
        }
        let base = self.ewma.value_or(actual_ms);
        let residual = actual_ms - base;
        let state = self.quantizer.state_of(residual);
        if let (Some(prev), true) = (self.last_state, self.online) {
            self.chain.observe(prev, state);
        }
        self.last_state = Some(state);
        self.ewma.update(actual_ms);
    }

    /// Model summary string for the Table 2(b) report.
    pub fn model_name(&self) -> String {
        format!("<Eq. 1> + Markov {}", self.label)
    }
}

/// Linear-ROI + Markov predictor for granularity-dependent tasks (RDG ROI):
/// a linear growth function of the ROI size (Eq. 3) plus a Markov chain
/// over the detrended residuals (Section 4, last paragraph).
#[derive(Debug, Clone)]
pub struct LinearMarkovPredictor {
    model: LinearModel,
    quantizer: Quantizer,
    chain: MarkovChain,
    last_state: Option<usize>,
    online: bool,
    label: &'static str,
    /// Residual distribution over the training window, kept sliding as
    /// new residuals are observed.
    errors: ResidualWindow,
}

impl LinearMarkovPredictor {
    /// Trains from `(roi_kpixels, time_ms)` pairs observed in sequence
    /// order.
    pub fn train(points: &[(f64, f64)], max_states: usize, label: &'static str) -> Self {
        assert!(points.len() >= 2, "need at least two training points");
        let model = LinearModel::fit(points);
        let residuals = model.residuals(points);
        let states = Quantizer::paper_state_count(
            &residuals.iter().map(|r| r.abs()).collect::<Vec<_>>(),
            max_states,
        )
        .max(2);
        let quantizer = Quantizer::train(&residuals, states);
        let seq: Vec<usize> = residuals.iter().map(|&r| quantizer.state_of(r)).collect();
        let chain = MarkovChain::estimate(&seq, quantizer.states());
        Self {
            model,
            quantizer,
            chain,
            // warm-start in the last training residual's state, mirroring
            // the EWMA+Markov predictor
            last_state: seq.last().copied(),
            online: false,
            label,
            errors: ResidualWindow::seed(RESIDUAL_WINDOW, &residuals),
        }
    }

    /// The `q`-quantile estimate on top of the Eq. 3 base: the wider of
    /// the chain quantile and the training-window residual quantile.
    fn quantile_estimate(&self, base: f64, q: f64) -> f64 {
        let chain_q = match self.last_state {
            Some(s) => self
                .chain
                .quantile_next(s, q, |j| self.quantizer.representative(j)),
            None => 0.0,
        };
        let fluct = if self.errors.is_empty() {
            chain_q
        } else {
            chain_q.max(self.errors.quantile(q))
        };
        (base + fluct).max(0.0)
    }

    /// Enables or disables online adaptation of the transition matrix.
    pub(crate) fn set_online(&mut self, online: bool) {
        self.online = online;
    }

    /// Whether online adaptation is enabled.
    pub(crate) fn online(&self) -> bool {
        self.online
    }

    /// The task name the predictor was trained as.
    pub(crate) fn label(&self) -> &'static str {
        self.label
    }

    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        self.model.encode(w);
        self.quantizer.encode(w);
        self.chain.encode(w);
        w.opt_usize(self.last_state);
        w.bool(self.online);
        w.str(self.label);
        self.errors.encode(w);
    }

    /// Decodes a state of the predictor trained as `label`.
    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
        label: &'static str,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Corrupt;
        let model = LinearModel::decode(r)?;
        let quantizer = Quantizer::decode(r)?;
        let chain = MarkovChain::decode(r)?;
        if chain.states() != quantizer.states() {
            return Err(Corrupt("chain/quantizer state count mismatch"));
        }
        let last_state = r.opt_usize("linear-markov last state")?;
        if last_state.is_some_and(|s| s >= chain.states()) {
            return Err(Corrupt("last state out of range"));
        }
        let online = r.bool("linear-markov online flag")?;
        let label = r.label(label, "linear-markov label")?;
        let errors = ResidualWindow::decode(r)?;
        Ok(Self {
            model,
            quantizer,
            chain,
            last_state,
            online,
            label,
            errors,
        })
    }

    /// Predictive distribution of the next execution time at the ROI size
    /// `ctx.roi_kpixels`: the Eq. 3 line plus the Markov fluctuation term,
    /// with tails as for [`EwmaMarkovPredictor::predict`].
    pub fn predict(&self, ctx: &PredictContext) -> Prediction {
        let base = self.model.eval(ctx.roi_kpixels);
        let fluctuation = match self.last_state {
            Some(s) => self
                .chain
                .expected_next(s, |j| self.quantizer.representative(j)),
            None => 0.0,
        };
        Prediction::from_quantiles(
            (base + fluctuation).max(0.0),
            self.quantile_estimate(base, 0.5),
            self.quantile_estimate(base, 0.95),
            self.quantile_estimate(base, 0.99),
        )
    }

    /// Feeds the measured execution time after the task ran.
    pub fn observe(&mut self, actual_ms: f64, ctx: &PredictContext) {
        let residual = actual_ms - self.model.eval(ctx.roi_kpixels);
        let state = self.quantizer.state_of(residual);
        if let (Some(prev), true) = (self.last_state, self.online) {
            self.chain.observe(prev, state);
        }
        self.last_state = Some(state);
        self.errors.push(residual);
    }

    /// Model summary string for the Table 2(b) report.
    pub fn model_name(&self) -> String {
        format!("<Eq. 3> + Markov {}", self.label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::TaskModel;
    use rand::{Rng, SeedableRng};

    fn ctx() -> PredictContext {
        PredictContext::default()
    }

    #[test]
    fn constant_predictor_mean_is_constant() {
        let mut p = ConstantPredictor::new(2.5);
        assert_eq!(p.predict(&ctx()).mean_ms, 2.5);
        p.observe(100.0, &ctx());
        assert_eq!(p.predict(&ctx()).mean_ms, 2.5);
        assert_eq!(p.model_name(), "2.5");
        // ...but its tail now covers the observed outlier
        assert!(p.predict(&ctx()).p99_ms >= 100.0 - 1e-9);
    }

    #[test]
    fn constant_trains_to_mean() {
        let p = ConstantPredictor::train(&[1.0, 2.0, 3.0]);
        assert!((p.predict(&ctx()).mean_ms - 2.0).abs() < 1e-12);
    }

    #[test]
    fn prediction_quantiles_are_monotone_for_every_class() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        let series: Vec<f64> = (0..500).map(|_| 40.0 + rng.gen_range(-5.0..5.0)).collect();
        let points: Vec<(f64, f64)> = (0..500)
            .map(|i| {
                let roi = 50.0 + (i % 200) as f64;
                (roi, 0.05 * roi + 10.0 + rng.gen_range(-2.0..2.0))
            })
            .collect();
        let mut models = [
            TaskModel::Constant(ConstantPredictor::train(&series)),
            TaskModel::EwmaMarkov(EwmaMarkovPredictor::train(&series, 0.2, 16, "T")),
            TaskModel::LinearMarkov(LinearMarkovPredictor::train(&points, 16, "T")),
        ];
        let c = PredictContext { roi_kpixels: 120.0 };
        for m in &mut models {
            for i in 0..50 {
                m.observe(40.0 + (i % 7) as f64, &c);
            }
            let p = m.predict(&c);
            assert!(
                p.p50_ms <= p.p95_ms && p.p95_ms <= p.p99_ms,
                "{}: {p:?}",
                m.model_name()
            );
            assert!(p.p50_ms >= 0.0);
            // interpolated quantiles are monotone in q
            let mut last = 0.0;
            for q in [0.0, 0.3, 0.5, 0.7, 0.9, 0.95, 0.97, 0.99, 1.0] {
                let v = p.quantile(q);
                assert!(v >= last - 1e-12, "q={q}: {v} < {last}");
                last = v;
            }
        }
    }

    #[test]
    fn prediction_point_and_interpolation() {
        let p = Prediction::point(10.0);
        assert_eq!(p.quantile(0.2), 10.0);
        assert_eq!(p.quantile(0.99), 10.0);
        let d = Prediction::from_quantiles(10.0, 10.0, 19.0, 29.0);
        assert_eq!(d.quantile(0.5), 10.0);
        assert!((d.quantile(0.95) - 19.0).abs() < 1e-9);
        assert!((d.quantile(0.99) - 29.0).abs() < 1e-9);
        assert_eq!(d.quantile(1.0), 29.0);
        let mid = d.quantile(0.725); // halfway between p50 and p95
        assert!((mid - 14.5).abs() < 1e-9, "mid {mid}");
        // out-of-order inputs are clamped monotone
        let c = Prediction::from_quantiles(5.0, 8.0, 6.0, 2.0);
        assert!(c.p50_ms <= c.p95_ms && c.p95_ms <= c.p99_ms);
    }

    #[test]
    fn residual_window_rolls_and_quantiles() {
        let mut w = ResidualWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.95), 0.0);
        for v in [1.0, 2.0, 3.0, 4.0] {
            w.push(v);
        }
        assert_eq!(w.buf.len(), 4);
        assert_eq!(w.quantile(0.5), 2.0);
        assert_eq!(w.quantile(1.0), 4.0);
        // pushing evicts the oldest (1.0)
        w.push(10.0);
        assert_eq!(w.buf.len(), 4);
        assert_eq!(w.quantile(0.0), 2.0);
        assert_eq!(w.quantile(1.0), 10.0);
    }

    /// An AR(1)-plus-trend series: the EWMA+Markov predictor must beat the
    /// global mean by a clear margin (the point of the paper's model).
    #[test]
    fn ewma_markov_beats_mean_on_correlated_load() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut ar = 0.0f64;
        let series: Vec<f64> = (0..3000)
            .map(|i| {
                ar = 0.85 * ar + rng.gen_range(-1.0..1.0);
                45.0 + 8.0 * (std::f64::consts::TAU * i as f64 / 400.0).sin() + 3.0 * ar
            })
            .collect();
        let (train, test) = series.split_at(2000);
        let mut p = EwmaMarkovPredictor::train(train, 0.2, 32, "TEST");
        let mean = crate::stats::mean(train);

        // warm up on the tail of training data
        for &x in &train[train.len() - 50..] {
            p.observe(x, &ctx());
        }
        let mut err_model = 0.0;
        let mut err_mean = 0.0;
        for &x in test {
            err_model += (p.predict(&ctx()).mean_ms - x).abs();
            err_mean += (mean - x).abs();
            p.observe(x, &ctx());
        }
        assert!(
            err_model < 0.5 * err_mean,
            "model {err_model:.1} vs mean {err_mean:.1}"
        );
    }

    #[test]
    fn ewma_markov_prediction_nonnegative() {
        let series = vec![0.5, 0.1, 0.2, 0.4, 0.05, 0.3, 0.2, 0.15];
        let mut p = EwmaMarkovPredictor::train(&series, 0.3, 8, "T");
        p.observe(0.01, &ctx());
        assert!(p.predict(&ctx()).mean_ms >= 0.0);
    }

    #[test]
    fn ewma_markov_model_name_matches_table2b() {
        let p = EwmaMarkovPredictor::train(&[1.0, 2.0, 3.0], 0.2, 8, "RDG");
        assert_eq!(p.model_name(), "<Eq. 1> + Markov RDG");
    }

    #[test]
    fn linear_markov_recovers_roi_dependence() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(10);
        let points: Vec<(f64, f64)> = (0..1000)
            .map(|i| {
                let roi = 50.0 + (i % 250) as f64;
                (roi, 0.07 * roi + 20.0 + rng.gen_range(-1.0..1.0))
            })
            .collect();
        let p = LinearMarkovPredictor::train(&points, 16, "RDG");
        let g = p.model;
        assert!((g.slope - 0.07).abs() < 0.01, "slope {}", g.slope);
        assert!(
            (g.intercept - 20.0).abs() < 2.0,
            "intercept {}",
            g.intercept
        );
        // prediction at a known ROI lands near the line
        let pred = p.predict(&PredictContext { roi_kpixels: 100.0 }).mean_ms;
        assert!((pred - 27.0).abs() < 3.0, "pred {pred}");
    }

    #[test]
    fn linear_markov_residual_chain_helps() {
        // residuals are AR(1): the chain should reduce error vs line alone
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut ar = 0.0f64;
        let points: Vec<(f64, f64)> = (0..3000)
            .map(|i| {
                ar = 0.9 * ar + rng.gen_range(-1.0..1.0);
                let roi = 50.0 + (i % 300) as f64;
                (roi, 0.067 * roi + 20.6 + 4.0 * ar)
            })
            .collect();
        let (train, test) = points.split_at(2000);
        let mut p = LinearMarkovPredictor::train(train, 24, "RDG");
        let line = p.model;
        for &(roi, y) in &train[train.len() - 20..] {
            p.observe(y, &PredictContext { roi_kpixels: roi });
        }
        let mut err_model = 0.0;
        let mut err_line = 0.0;
        for &(roi, y) in test {
            let c = PredictContext { roi_kpixels: roi };
            err_model += (p.predict(&c).mean_ms - y).abs();
            err_line += (line.eval(roi) - y).abs();
            p.observe(y, &c);
        }
        assert!(
            err_model < 0.7 * err_line,
            "model {err_model:.1} vs line {err_line:.1}"
        );
    }

    #[test]
    fn online_training_updates_chain() {
        let series = vec![10.0, 12.0, 10.0, 12.0, 10.0, 12.0, 10.0, 12.0];
        let mut p = EwmaMarkovPredictor::train(&series, 0.3, 8, "T");
        assert!(!p.online());
        p.set_online(true);
        assert!(p.online());
        // feed a long run of constant values: the chain adapts to the new
        // regime and the prediction converges toward it
        for _ in 0..100 {
            p.observe(20.0, &ctx());
        }
        let pred = p.predict(&ctx()).mean_ms;
        assert!((pred - 20.0).abs() < 1.5, "pred {pred}");
    }
}
