//! Ablations of the paper's design choices (listed in DESIGN.md §5):
//! the EWMA factor, the Markov state count, the EWMA/Markov decomposition
//! itself, the adaptive (equal-mass) quantization, the chain's order and
//! online training. The alternatives the paper rejected (uniform-width
//! bins, order-k chains) live here, not in the prediction library.

use crate::config::ExperimentConfig;
use crate::report::table;
use crate::table2::profile_rdg_direct;
use pipeline::app::AppConfig;
use std::collections::BTreeMap;
use triplec::accuracy::evaluate;
use triplec::ewma::Ewma;
use triplec::markov::MarkovChain;
use triplec::predictor::{EwmaMarkovPredictor, PredictContext};
use triplec::quantize::Quantizer;
use triplec::stats::mean;
use xray::long_trace_sequence;

/// Measures a content-dependent RDG computation-time series with the
/// pipeline's coarse-to-fine adaptation (the Fig. 3 regime).
fn collect_rdg_series(cfg: &ExperimentConfig, frames: usize) -> Vec<f64> {
    let seq = long_trace_sequence(cfg.size, cfg.size, frames);
    profile_rdg_direct(seq, &AppConfig::default())
}

/// One-step-ahead evaluation of a predictor over a test series.
fn one_step_accuracy(p: &mut EwmaMarkovPredictor, warmup: &[f64], test: &[f64]) -> f64 {
    let ctx = PredictContext::default();
    for &x in warmup {
        p.observe(x, &ctx);
    }
    let pairs: Vec<(f64, f64)> = test
        .iter()
        .map(|&x| {
            let pred = p.predict(&ctx).mean_ms;
            p.observe(x, &ctx);
            (pred, x)
        })
        .collect();
    evaluate(&pairs).mean_accuracy
}

/// Ablation 1 — EWMA smoothing factor sweep.
pub(crate) fn alpha_sweep(cfg: &ExperimentConfig) -> (Vec<(f64, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() * 2 / 3;
    let (train, test) = series.split_at(split);
    let warm = &train[train.len().saturating_sub(20)..];

    let alphas = [0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9];
    let mut results = Vec::with_capacity(alphas.len());
    for &a in &alphas {
        let mut p = EwmaMarkovPredictor::train(train, a, 24, "RDG");
        let acc = one_step_accuracy(&mut p, warm, test);
        results.push((a, acc));
    }
    let mut out = String::new();
    out.push_str("Ablation — EWMA alpha (Eq. 1; paper does not publish its value)\n\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(a, acc)| vec![format!("{a:.2}"), format!("{:.1}%", acc * 100.0)])
        .collect();
    out.push_str(&table(&["alpha", "one-step accuracy"], &rows));
    let best = results
        .iter()
        .cloned()
        .fold((0.0, 0.0), |b, r| if r.1 > b.1 { r } else { b });
    out.push_str(&format!(
        "\nbest alpha {:.2} at {:.1}% accuracy\n",
        best.0,
        best.1 * 100.0
    ));
    (results, out)
}

/// Ablation 2 — Markov state-count sweep vs. the paper's 2M heuristic.
pub(crate) fn state_sweep(cfg: &ExperimentConfig) -> (Vec<(usize, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() * 2 / 3;
    let (train, test) = series.split_at(split);
    let warm = &train[train.len().saturating_sub(20)..];

    // the paper heuristic applied to the residuals
    let (_, residuals) = triplec::ewma::decompose(train, 0.2);
    let heuristic =
        Quantizer::paper_state_count(&residuals.iter().map(|r| r.abs()).collect::<Vec<_>>(), 64);

    let counts = [1usize, 2, 4, 8, 16, 32, 64];
    let mut results = Vec::with_capacity(counts.len());
    for &n in &counts {
        let mut p = EwmaMarkovPredictor::train(train, 0.2, n, "RDG");
        let acc = one_step_accuracy(&mut p, warm, test);
        results.push((n, acc));
    }
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — Markov state count (paper heuristic 2M = {heuristic} states here)\n\n"
    ));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(n, acc)| vec![format!("{n}"), format!("{:.1}%", acc * 100.0)])
        .collect();
    out.push_str(&table(&["max states", "one-step accuracy"], &rows));
    (results, out)
}

/// Ablation 3 — model decomposition: constant vs. EWMA-only vs.
/// Markov-only vs. the paper's EWMA+Markov split.
pub(crate) fn decomposition(cfg: &ExperimentConfig) -> (Vec<(&'static str, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() * 2 / 3;
    let (train, test) = series.split_at(split);
    let warm = &train[train.len().saturating_sub(20)..];
    let ctx = PredictContext::default();

    let mut results: Vec<(&'static str, f64)> = Vec::new();

    // constant (global mean)
    {
        let m = mean(train);
        let pairs: Vec<(f64, f64)> = test.iter().map(|&x| (m, x)).collect();
        results.push(("constant (mean)", evaluate(&pairs).mean_accuracy));
    }
    // EWMA-only
    {
        let mut e = Ewma::new(0.2);
        for &x in train.iter().chain(warm) {
            e.update(x);
        }
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|&x| {
                let pred = e.value_or(x);
                e.update(x);
                (pred, x)
            })
            .collect();
        results.push(("EWMA only", evaluate(&pairs).mean_accuracy));
    }
    // Markov-only on raw values
    {
        let q = Quantizer::train(train, Quantizer::paper_state_count(train, 24).max(2));
        let seq: Vec<usize> = train.iter().map(|&v| q.state_of(v)).collect();
        let chain = MarkovChain::estimate(&seq, q.states());
        let mut state = q.state_of(*warm.last().unwrap_or(&train[0]));
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|&x| {
                let pred = chain.expected_next(state, |j| q.representative(j));
                state = q.state_of(x);
                (pred, x)
            })
            .collect();
        results.push(("Markov only", evaluate(&pairs).mean_accuracy));
    }
    // the paper's split
    {
        let mut p = EwmaMarkovPredictor::train(train, 0.2, 24, "RDG");
        for &x in warm {
            p.observe(x, &ctx);
        }
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|&x| {
                let pred = p.predict(&ctx).mean_ms;
                p.observe(x, &ctx);
                (pred, x)
            })
            .collect();
        results.push(("EWMA + Markov (paper)", evaluate(&pairs).mean_accuracy));
    }

    let mut out = String::new();
    out.push_str("Ablation — long/short-term decomposition (Section 4)\n\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(name, acc)| vec![name.to_string(), format!("{:.1}%", acc * 100.0)])
        .collect();
    out.push_str(&table(&["model", "one-step accuracy"], &rows));
    (results, out)
}

/// Uniform-width bins over the sample range: the naive alternative to the
/// paper's equal-mass intervals (`Quantizer::train`). Bin `i` covers
/// `(bounds[i-1], bounds[i]]` and the last is open-ended, as a
/// `Quantizer`'s states are.
struct UniformBins {
    bounds: Vec<f64>,
    /// Mean of the training samples per bin; an empty bin's midpoint.
    reps: Vec<f64>,
}

impl UniformBins {
    fn train(samples: &[f64], states: usize) -> Self {
        let lo = samples.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        if hi - lo <= 1e-12 {
            return Self {
                bounds: vec![f64::INFINITY],
                reps: vec![lo],
            };
        }
        let width = (hi - lo) / states as f64;
        let mut bounds: Vec<f64> = (1..states).map(|i| lo + width * i as f64).collect();
        bounds.push(f64::INFINITY);
        let mut bins = Self {
            reps: vec![0.0; bounds.len()],
            bounds,
        };
        let mut counts = vec![0usize; bins.reps.len()];
        for &s in samples {
            let st = bins.state_of(s);
            bins.reps[st] += s;
            counts[st] += 1;
        }
        for (i, (rep, &count)) in bins.reps.iter_mut().zip(&counts).enumerate() {
            *rep = if count > 0 {
                *rep / count as f64
            } else {
                let lo_b = if i == 0 { lo } else { bins.bounds[i - 1] };
                (lo_b + bins.bounds[i].min(hi)) * 0.5
            };
        }
        bins
    }

    fn state_of(&self, x: f64) -> usize {
        match self.bounds.binary_search_by(|b| b.total_cmp(&x)) {
            Ok(i) => i,
            Err(i) => i.min(self.bounds.len() - 1),
        }
    }
}

/// Ablation 4 — equal-mass (paper) vs. uniform-width quantization.
pub(crate) fn quantization(cfg: &ExperimentConfig) -> (Vec<(&'static str, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() * 2 / 3;
    let (train, test) = series.split_at(split);

    let (_, residuals) = triplec::ewma::decompose(train, 0.2);
    let states =
        Quantizer::paper_state_count(&residuals.iter().map(|r| r.abs()).collect::<Vec<_>>(), 24)
            .max(2);

    // residual round-trip + chain prediction over a quantizer's states
    let eval_quantizer =
        |states: usize, state_of: &dyn Fn(f64) -> usize, representative: &dyn Fn(usize) -> f64| {
            let seq: Vec<usize> = residuals.iter().map(|&r| state_of(r)).collect();
            let chain = MarkovChain::estimate(&seq, states);
            let mut e = Ewma::new(0.2);
            for &x in train {
                e.update(x);
            }
            let mut state = seq.last().copied().unwrap_or(0);
            let pairs: Vec<(f64, f64)> = test
                .iter()
                .map(|&x| {
                    let base = e.value_or(x);
                    let pred = base + chain.expected_next(state, representative);
                    state = state_of(x - base);
                    e.update(x);
                    (pred, x)
                })
                .collect();
            evaluate(&pairs).mean_accuracy
        };

    let q = Quantizer::train(&residuals, states);
    let adaptive = eval_quantizer(q.states(), &|x| q.state_of(x), &|j| q.representative(j));
    let u = UniformBins::train(&residuals, states);
    let uniform = eval_quantizer(u.reps.len(), &|x| u.state_of(x), &|j| u.reps[j]);

    let results = vec![("equal-mass (paper)", adaptive), ("uniform-width", uniform)];
    let mut out = String::new();
    out.push_str(&format!(
        "Ablation — quantization intervals ({states} states)\n\n"
    ));
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(name, acc)| vec![name.to_string(), format!("{:.1}%", acc * 100.0)])
        .collect();
    out.push_str(&table(&["quantizer", "one-step accuracy"], &rows));
    (results, out)
}

/// Higher-order chains, from Section 4: "To deal with applications for
/// which the computation time depends on long-term statistics of the video
/// frames, higher-order probabilistic processes can be used, but the state
/// space will grow exponentially. Also, a problem is to obtain
/// statistically significant estimates for the transition probabilities,
/// because with an increasing order, the number of samples for each
/// estimate is very small, even for long data sets."
///
/// An order-`k` Markov chain: the next state is predicted from the last
/// `k` states (the context).
#[derive(Debug, Clone)]
struct HigherOrderChain {
    order: usize,
    states: usize,
    /// Transition counts per observed context.
    counts: BTreeMap<Vec<usize>, Vec<u64>>,
    /// Marginal next-state distribution (fallback for unseen contexts).
    marginal: Vec<u64>,
}

impl HigherOrderChain {
    /// Estimates an order-`k` chain from a state sequence.
    fn estimate(sequence: &[usize], states: usize, order: usize) -> Self {
        assert!(states > 0, "at least one state required");
        assert!(order >= 1, "order must be at least 1");
        let mut counts: BTreeMap<Vec<usize>, Vec<u64>> = BTreeMap::new();
        let mut marginal = vec![0u64; states];
        for w in sequence.windows(order + 1) {
            let (ctx, next) = w.split_at(order);
            let next = next[0];
            assert!(
                next < states && ctx.iter().all(|&s| s < states),
                "state out of range"
            );
            counts
                .entry(ctx.to_vec())
                .or_insert_with(|| vec![0; states])[next] += 1;
            marginal[next] += 1;
        }
        Self {
            order,
            states,
            counts,
            marginal,
        }
    }

    /// Number of contexts actually observed in training.
    fn observed_contexts(&self) -> usize {
        self.counts.len()
    }

    /// The theoretical context-space size `states^order` (saturating) —
    /// the exponential growth the paper warns about.
    fn context_space(&self) -> u64 {
        (self.states as u64).saturating_pow(self.order as u32)
    }

    /// Fraction of the theoretical context space never observed (the
    /// sample-starvation measure).
    fn context_coverage(&self) -> f64 {
        let space = self.context_space();
        if space == 0 {
            0.0
        } else {
            self.observed_contexts() as f64 / space as f64
        }
    }

    /// Mean training samples per observed context — the "statistically
    /// significant estimates" concern.
    fn samples_per_context(&self) -> f64 {
        if self.counts.is_empty() {
            return 0.0;
        }
        let total: u64 = self.counts.values().flat_map(|row| row.iter()).sum();
        total as f64 / self.counts.len() as f64
    }

    /// Probability of `next` given a context of the last `order` states
    /// (most recent last). Unseen contexts fall back to the marginal
    /// distribution; an all-zero marginal falls back to uniform.
    fn prob(&self, context: &[usize], next: usize) -> f64 {
        assert_eq!(
            context.len(),
            self.order,
            "context length must equal the order"
        );
        let row = self.counts.get(context);
        match row {
            Some(row) => {
                let total: u64 = row.iter().sum();
                if total == 0 {
                    1.0 / self.states as f64
                } else {
                    row[next] as f64 / total as f64
                }
            }
            None => {
                let total: u64 = self.marginal.iter().sum();
                if total == 0 {
                    1.0 / self.states as f64
                } else {
                    self.marginal[next] as f64 / total as f64
                }
            }
        }
    }

    /// Expected value of `f(next_state)` given a context.
    fn expected_next(&self, context: &[usize], f: impl Fn(usize) -> f64) -> f64 {
        (0..self.states).map(|j| self.prob(context, j) * f(j)).sum()
    }
}

/// Ablation 5 — Markov-chain order: the paper's argument that
/// higher-order chains explode the state space and starve the transition
/// estimates (Section 4), quantified.
pub(crate) fn order_sweep(cfg: &ExperimentConfig) -> (Vec<(usize, f64, f64, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() * 2 / 3;
    let (train, test) = series.split_at(split);

    // quantize on the EWMA residuals as the real model does
    let (_, residuals) = triplec::ewma::decompose(train, 0.2);
    let states =
        Quantizer::paper_state_count(&residuals.iter().map(|r| r.abs()).collect::<Vec<_>>(), 16)
            .max(4);
    let q = Quantizer::train(&residuals, states);
    let train_states: Vec<usize> = residuals.iter().map(|&r| q.state_of(r)).collect();

    let mut results = Vec::new();
    for order in 1..=3usize {
        let chain = HigherOrderChain::estimate(&train_states, q.states(), order);
        // one-step evaluation with a running EWMA + context window
        let mut e = Ewma::new(0.2);
        for &x in train {
            e.update(x);
        }
        let mut ctx: Vec<usize> = train_states[train_states.len() - order..].to_vec();
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|&x| {
                let base = e.value_or(x);
                let pred = base + chain.expected_next(&ctx, |j| q.representative(j));
                let st = q.state_of(x - base);
                ctx.remove(0);
                ctx.push(st);
                e.update(x);
                (pred, x)
            })
            .collect();
        let acc = evaluate(&pairs).mean_accuracy;
        results.push((
            order,
            acc,
            chain.context_coverage(),
            chain.samples_per_context(),
        ));
    }

    let mut out = String::new();
    out.push_str("Ablation — Markov order (Section 4's state-space argument)\n\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(o, acc, cov, spc)| {
            vec![
                format!("{o}"),
                format!("{:.1}%", acc * 100.0),
                format!("{:.1}%", cov * 100.0),
                format!("{spc:.1}"),
            ]
        })
        .collect();
    out.push_str(&table(
        &[
            "order",
            "one-step accuracy",
            "context coverage",
            "samples/context",
        ],
        &rows,
    ));
    out.push_str(
        "\npaper: \"with an increasing order, the number of samples for each\n\
         estimate is very small, even for long data sets\" — first order wins\n\
         once sample starvation is accounted for.\n",
    );
    (results, out)
}

/// Ablation 6 — online model training (Section 6 "Profiling ... can be
/// used for on-line model training"): a frozen model vs. one whose
/// transition matrix keeps adapting, evaluated after a platform-load
/// regime change.
pub(crate) fn online_training(cfg: &ExperimentConfig) -> (Vec<(&'static str, f64)>, String) {
    let series = collect_rdg_series(cfg, cfg.fig3_frames.min(300));
    let split = series.len() / 2;
    let (train, test_raw) = series.split_at(split);
    // regime change: the platform is suddenly 40% more loaded
    let test: Vec<f64> = test_raw.iter().map(|&x| x * 1.4).collect();

    let eval = |online: bool| {
        let mut p = EwmaMarkovPredictor::train(train, 0.2, 24, "RDG");
        p.set_online(online);
        let ctx = PredictContext::default();
        for &x in &train[train.len().saturating_sub(10)..] {
            p.observe(x, &ctx);
        }
        let pairs: Vec<(f64, f64)> = test
            .iter()
            .map(|&x| {
                let pred = p.predict(&ctx).mean_ms;
                p.observe(x, &ctx);
                (pred, x)
            })
            .collect();
        evaluate(&pairs).mean_accuracy
    };

    let frozen = eval(false);
    let online = eval(true);
    let results = vec![("frozen matrix", frozen), ("online training", online)];
    let mut out = String::new();
    out.push_str("Ablation — online model training after a 1.4x load regime change\n\n");
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|&(n, a)| vec![n.to_string(), format!("{:.1}%", a * 100.0)])
        .collect();
    out.push_str(&table(&["model", "one-step accuracy"], &rows));
    out.push_str(
        "\n(the EWMA absorbs most of the level shift either way; online training\n\
         additionally re-estimates the residual transitions, Section 6)\n",
    );
    (results, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            size: 96,
            fig3_frames: 60,
            ..Default::default()
        }
    }

    #[test]
    fn alpha_sweep_produces_all_points() {
        let (r, text) = alpha_sweep(&tiny());
        assert_eq!(r.len(), 7);
        assert!(r.iter().all(|&(_, acc)| (0.0..=1.0).contains(&acc)));
        assert!(text.contains("best alpha"));
    }

    #[test]
    fn state_sweep_produces_all_points() {
        let (r, _) = state_sweep(&tiny());
        assert_eq!(r.len(), 7);
    }

    #[test]
    fn decomposition_beats_constant() {
        // on a content-driven series the composite model must beat the
        // mean. The series is one host-timed profile per run, so judge the
        // median of five.
        let gains = crate::five_sorted(|| {
            let (r, _) = decomposition(&tiny());
            let constant = r.iter().find(|(n, _)| n.starts_with("constant")).unwrap().1;
            let paper = r.iter().find(|(n, _)| n.contains("paper")).unwrap().1;
            paper - constant
        });
        assert!(gains[2] >= -0.05, "paper minus constant {gains:?}");
    }

    #[test]
    fn quantization_comparison_runs() {
        let (r, _) = quantization(&tiny());
        assert_eq!(r.len(), 2);
        assert!(r.iter().all(|&(_, acc)| acc > 0.0));
    }

    #[test]
    fn uniform_bins_split_the_range_evenly() {
        let bins = UniformBins::train(&[0.0, 1.0, 9.0, 10.0], 5);
        assert_eq!(bins.bounds, [2.0, 4.0, 6.0, 8.0, f64::INFINITY]);
        // a value on a bound belongs to the bin below it
        let states = [0.0, 2.0, 2.5, 10.0, 99.0].map(|x| bins.state_of(x));
        assert_eq!(states, [0, 0, 1, 4, 4]);
        // bins 1-3 hold no sample and stand at their midpoints
        assert_eq!(bins.reps, [0.5, 3.0, 5.0, 7.0, 9.5]);
    }

    #[test]
    fn order_sweep_shows_sample_starvation() {
        let (r, _) = order_sweep(&tiny());
        assert_eq!(r.len(), 3);
        // samples per context must shrink with the order
        assert!(r[0].3 > r[2].3, "order-1 {} vs order-3 {}", r[0].3, r[2].3);
    }

    #[test]
    fn online_training_comparison_runs() {
        // online adaptation must not hurt after a regime change. The series
        // is one host-timed profile per run, so judge the median of five.
        let gains = crate::five_sorted(|| {
            let (r, _) = online_training(&tiny());
            assert_eq!(r.len(), 2);
            r[1].1 - r[0].1
        });
        assert!(gains[2] >= -0.1, "online minus frozen {gains:?}");
    }

    #[test]
    fn order_one_matches_first_order_chain() {
        let seq = vec![0usize, 1, 0, 1, 1, 0, 1, 0, 0, 1];
        let high = HigherOrderChain::estimate(&seq, 2, 1);
        let first = MarkovChain::estimate(&seq, 2);
        for i in 0..2 {
            for j in 0..2 {
                assert!(
                    (high.prob(&[i], j) - first.prob(i, j)).abs() < 1e-12,
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn order_two_captures_second_order_structure() {
        // sequence where the next state depends on the last TWO states:
        // after (0,0) -> 1; after (0,1) -> 1; after (1,1) -> 0; after (1,0) -> 0
        // i.e. 0 0 1 1 0 0 1 1 ... period 4
        let seq: Vec<usize> = (0..400)
            .map(|i| usize::from(i % 4 == 2 || i % 4 == 3))
            .collect();
        let o2 = HigherOrderChain::estimate(&seq, 2, 2);
        assert!(o2.prob(&[0, 0], 1) > 0.95);
        assert!(o2.prob(&[0, 1], 1) > 0.95);
        assert!(o2.prob(&[1, 1], 0) > 0.95);
        assert!(o2.prob(&[1, 0], 0) > 0.95);
        // a first-order chain cannot: from state 0 both 0 and 1 follow
        let o1 = HigherOrderChain::estimate(&seq, 2, 1);
        assert!(
            (o1.prob(&[0], 1) - 0.5).abs() < 0.05,
            "{}",
            o1.prob(&[0], 1)
        );
    }

    #[test]
    fn context_space_grows_exponentially() {
        let seq: Vec<usize> = (0..100).map(|i| i % 10).collect();
        for order in 1..=4 {
            let c = HigherOrderChain::estimate(&seq, 10, order);
            assert_eq!(c.context_space(), 10u64.pow(order as u32));
        }
    }

    #[test]
    fn sample_starvation_with_order() {
        // random sequence: coverage collapses as the order grows
        let mut rng = rand::rngs::StdRng::seed_from_u64(30);
        let seq: Vec<usize> = (0..2000).map(|_| rng.gen_range(0..8)).collect();
        let c1 = HigherOrderChain::estimate(&seq, 8, 1);
        let c3 = HigherOrderChain::estimate(&seq, 8, 3);
        assert!(
            c1.context_coverage() > 0.9,
            "order-1 coverage {}",
            c1.context_coverage()
        );
        assert!(
            c3.context_coverage() < c1.context_coverage(),
            "order-3 coverage {} not below order-1 {}",
            c3.context_coverage(),
            c1.context_coverage()
        );
        assert!(c1.samples_per_context() > 10.0 * c3.samples_per_context());
    }

    #[test]
    fn unseen_context_falls_back_to_marginal() {
        let seq = vec![0usize, 1, 0, 1, 0, 1];
        let c = HigherOrderChain::estimate(&seq, 3, 2);
        // context (2,2) never observed; marginal is half 0, half 1, no 2
        let p0 = c.prob(&[2, 2], 0);
        let p1 = c.prob(&[2, 2], 1);
        let p2 = c.prob(&[2, 2], 2);
        assert!((p0 + p1 + p2 - 1.0).abs() < 1e-12);
        assert!(p2 < 0.01);
    }

    #[test]
    fn expected_next_follows_the_context() {
        let seq = vec![0usize, 0, 1, 0, 0, 1, 0, 0, 1];
        let c = HigherOrderChain::estimate(&seq, 2, 2);
        let e = c.expected_next(&[0, 0], |j| j as f64 * 10.0);
        assert!(e > 9.0, "expected {e}");
    }

    #[test]
    #[should_panic(expected = "context length")]
    fn wrong_context_length_rejected() {
        let c = HigherOrderChain::estimate(&[0, 1, 0], 2, 2);
        let _ = c.prob(&[0], 1);
    }
}
