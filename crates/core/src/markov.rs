//! Finite-state Markov chains over quantized computation-time states.
//!
//! "The entries of the transition probability matrix {Pij} are estimated by
//! `Pij = nij / sum_k nik`, where nij denotes the number of transitions
//! from interval i to interval j." (Eq. 2, Section 4)

/// A first-order Markov chain with row-stochastic transition matrix.
///
/// ```
/// use triplec::MarkovChain;
/// // states observed over time: 0 -> 1 -> 0 -> 1 -> 1
/// let chain = MarkovChain::estimate(&[0, 1, 0, 1, 1], 2);
/// assert_eq!(chain.most_likely_next(0), 1);
/// assert!((chain.prob(1, 0) - 0.5).abs() < 1e-12); // Eq. 2
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovChain {
    states: usize,
    /// Row-major transition probabilities, `p[i * states + j] = P(i -> j)`.
    p: Vec<f64>,
    /// Raw transition counts (kept for online updates and inspection).
    counts: Vec<u64>,
}

impl MarkovChain {
    /// Estimates the chain from a state sequence (Eq. 2). Rows that were
    /// never visited fall back to a uniform distribution.
    pub fn estimate(sequence: &[usize], states: usize) -> Self {
        assert!(states > 0, "at least one state required");
        let mut counts = vec![0u64; states * states];
        for w in sequence.windows(2) {
            let (i, j) = (w[0], w[1]);
            assert!(i < states && j < states, "state out of range: {i} -> {j}");
            counts[i * states + j] += 1;
        }
        let mut chain = Self {
            states,
            p: vec![0.0; states * states],
            counts,
        };
        chain.renormalize();
        chain
    }

    /// Recomputes probabilities from counts.
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors Eq. 2
    fn renormalize(&mut self) {
        for i in 0..self.states {
            let row = &self.counts[i * self.states..(i + 1) * self.states];
            let total: u64 = row.iter().sum();
            if total == 0 {
                let u = 1.0 / self.states as f64;
                for j in 0..self.states {
                    self.p[i * self.states + j] = u;
                }
            } else {
                for j in 0..self.states {
                    self.p[i * self.states + j] = row[j] as f64 / total as f64;
                }
            }
        }
    }

    /// Number of states.
    pub fn states(&self) -> usize {
        self.states
    }

    /// Transition probability `P(i -> j)`.
    pub fn prob(&self, i: usize, j: usize) -> f64 {
        self.p[i * self.states + j]
    }

    /// A full row of the transition matrix.
    fn row(&self, i: usize) -> &[f64] {
        &self.p[i * self.states..(i + 1) * self.states]
    }

    /// Most likely next state from `i`.
    pub fn most_likely_next(&self, i: usize) -> usize {
        self.row(i)
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0)
    }

    /// Expected value of `f(next_state)` from state `i`.
    pub fn expected_next(&self, i: usize, f: impl Fn(usize) -> f64) -> f64 {
        self.row(i)
            .iter()
            .enumerate()
            .map(|(j, &pj)| pj * f(j))
            .sum()
    }

    /// Records an observed transition and refreshes the affected row
    /// (online training / model adaptation, Section 6 "Profiling").
    #[allow(clippy::needless_range_loop)] // (i, j) indexing mirrors Eq. 2
    pub fn observe(&mut self, i: usize, j: usize) {
        assert!(i < self.states && j < self.states, "state out of range");
        self.counts[i * self.states + j] += 1;
        let row = &self.counts[i * self.states..(i + 1) * self.states];
        let total: u64 = row.iter().sum();
        for j2 in 0..self.states {
            self.p[i * self.states + j2] = row[j2] as f64 / total as f64;
        }
    }

    /// The `q`-quantile of `f(next_state)` from state `i`: the smallest
    /// value `v` among the images of the next-state distribution such
    /// that `P(f(next) <= v) >= q`. Used for conservative (guaranteed-
    /// performance) planning rather than expected-value planning.
    pub fn quantile_next(&self, i: usize, q: f64, f: impl Fn(usize) -> f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let mut pairs: Vec<(f64, f64)> =
            (0..self.states).map(|j| (f(j), self.prob(i, j))).collect();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut acc = 0.0;
        for (v, p) in &pairs {
            acc += p;
            if acc >= q - 1e-12 {
                return *v;
            }
        }
        pairs.last().map(|&(v, _)| v).unwrap_or(0.0)
    }

    /// Verifies every row sums to 1 within tolerance (model invariant).
    pub fn is_row_stochastic(&self, tol: f64) -> bool {
        (0..self.states).all(|i| (self.row(i).iter().sum::<f64>() - 1.0).abs() <= tol)
    }

    /// Probabilities are a pure function of the counts (both `estimate`
    /// and `observe` derive them by the same Eq. 2 division), so only the
    /// counts travel in a snapshot and `decode` re-derives `p`
    /// bit-identically via [`MarkovChain::renormalize`].
    pub(crate) fn encode(&self, w: &mut crate::snapshot::Writer) {
        w.u64(self.states as u64);
        w.u64_slice(&self.counts);
    }

    pub(crate) fn decode(
        r: &mut crate::snapshot::Reader<'_>,
    ) -> Result<Self, crate::snapshot::SnapshotError> {
        use crate::snapshot::SnapshotError::Corrupt;
        let states = r.len("markov state count")?;
        if states == 0 {
            return Err(Corrupt("markov chain has zero states"));
        }
        let counts = r.u64_vec("markov counts")?;
        if counts.len() != states * states {
            return Err(Corrupt("markov counts length != states^2"));
        }
        let mut chain = Self {
            states,
            p: vec![0.0; states * states],
            counts,
        };
        chain.renormalize();
        Ok(chain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn estimate_matches_eq2() {
        // sequence 0 1 0 1 1: transitions 0->1 (x2), 1->0 (x1), 1->1 (x1)
        let c = MarkovChain::estimate(&[0, 1, 0, 1, 1], 2);
        assert!((c.prob(0, 1) - 1.0).abs() < 1e-12);
        assert!((c.prob(0, 0) - 0.0).abs() < 1e-12);
        assert!((c.prob(1, 0) - 0.5).abs() < 1e-12);
        assert!((c.prob(1, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rows_are_stochastic() {
        let c = MarkovChain::estimate(&[0, 1, 2, 1, 0, 2, 2, 1], 3);
        assert!(c.is_row_stochastic(1e-12));
    }

    #[test]
    fn unvisited_rows_are_uniform() {
        let c = MarkovChain::estimate(&[0, 0, 0], 3);
        for j in 0..3 {
            assert!((c.prob(2, j) - 1.0 / 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn most_likely_and_expected() {
        let c = MarkovChain::estimate(&[0, 1, 0, 1, 0, 2], 3);
        // from 0: 1 x2, 2 x1 (wait: 0->1, 1->0, 0->1, 1->0, 0->2)
        assert_eq!(c.most_likely_next(0), 1);
        let e = c.expected_next(0, |j| j as f64);
        // P(0->1)=2/3, P(0->2)=1/3 => E = 2/3 + 2/3 = 4/3
        assert!((e - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn observe_updates_row() {
        let mut c = MarkovChain::estimate(&[0, 1], 2);
        assert!((c.prob(0, 1) - 1.0).abs() < 1e-12);
        c.observe(0, 0);
        assert!((c.prob(0, 0) - 0.5).abs() < 1e-12);
        assert!((c.prob(0, 1) - 0.5).abs() < 1e-12);
        assert!(c.is_row_stochastic(1e-12));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_state_rejected() {
        let _ = MarkovChain::estimate(&[0, 5], 3);
    }

    #[test]
    fn single_state_chain_is_trivial() {
        let c = MarkovChain::estimate(&[0, 0, 0, 0], 1);
        assert_eq!(c.most_likely_next(0), 0);
        assert!((c.prob(0, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_next_brackets_expectation() {
        let c = MarkovChain::estimate(&[0, 1, 2, 1, 0, 2, 2, 1, 0, 1, 2, 0], 3);
        let reps = [10.0, 20.0, 30.0];
        for i in 0..3 {
            let e = c.expected_next(i, |j| reps[j]);
            let lo = c.quantile_next(i, 0.05, |j| reps[j]);
            let hi = c.quantile_next(i, 0.95, |j| reps[j]);
            assert!(lo <= e + 1e-9, "state {i}: lo {lo} > e {e}");
            assert!(hi >= e - 1e-9, "state {i}: hi {hi} < e {e}");
            // quantile is monotone in q
            let mid = c.quantile_next(i, 0.5, |j| reps[j]);
            assert!(lo <= mid && mid <= hi);
        }
    }

    #[test]
    fn quantile_of_deterministic_chain_is_the_target() {
        let c = MarkovChain::estimate(&[0, 1, 0, 1, 0, 1], 2);
        // from 0 always to 1
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(c.quantile_next(0, q, |j| j as f64 * 7.0), 7.0);
        }
    }

    #[test]
    fn ar_process_round_trip_prediction_beats_mean() {
        // quantize an AR(1) process, train a chain, and verify one-step
        // expected-value prediction beats predicting the global mean
        use crate::quantize::Quantizer;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut x = 0.0f64;
        let xs: Vec<f64> = (0..8000)
            .map(|_| {
                x = 0.9 * x + rng.gen_range(-1.0..1.0);
                x
            })
            .collect();
        let q = Quantizer::train(&xs, 10);
        let seq: Vec<usize> = xs.iter().map(|&v| q.state_of(v)).collect();
        let chain = MarkovChain::estimate(&seq, q.states());

        let mean = crate::stats::mean(&xs);
        let mut err_chain = 0.0;
        let mut err_mean = 0.0;
        for w in xs.windows(2) {
            let pred = chain.expected_next(q.state_of(w[0]), |j| q.representative(j));
            err_chain += (pred - w[1]).abs();
            err_mean += (mean - w[1]).abs();
        }
        assert!(
            err_chain < 0.6 * err_mean,
            "chain {err_chain} not much better than mean {err_mean}"
        );
    }
}
