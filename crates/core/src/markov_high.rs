//! Higher-order Markov chains.
//!
//! "To deal with applications for which the computation time depends on
//! long-term statistics of the video frames, higher-order probabilistic
//! processes can be used, but the state space will grow exponentially.
//! Also, a problem is to obtain statistically significant estimates for
//! the transition probabilities, because with an increasing order, the
//! number of samples for each estimate is very small, even for long data
//! sets." (Section 4)
//!
//! This module implements order-k chains so the paper's argument can be
//! verified quantitatively (see the order ablation experiment): prediction
//! accuracy saturates quickly with order while the number of contexts —
//! and hence the sample starvation — grows as `states^k`.

use std::collections::BTreeMap;

/// An order-`k` Markov chain: the next state is predicted from the last
/// `k` states (the context).
#[derive(Debug, Clone)]
pub struct HigherOrderChain {
    order: usize,
    states: usize,
    /// Transition counts per observed context.
    counts: BTreeMap<Vec<usize>, Vec<u64>>,
    /// Marginal next-state distribution (fallback for unseen contexts).
    marginal: Vec<u64>,
}

impl HigherOrderChain {
    /// Estimates an order-`k` chain from a state sequence.
    pub fn estimate(sequence: &[usize], states: usize, order: usize) -> Self {
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
    pub fn context_coverage(&self) -> f64 {
        let space = self.context_space();
        if space == 0 {
            0.0
        } else {
            self.observed_contexts() as f64 / space as f64
        }
    }

    /// Mean training samples per observed context — the "statistically
    /// significant estimates" concern.
    pub fn samples_per_context(&self) -> f64 {
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
    pub fn expected_next(&self, context: &[usize], f: impl Fn(usize) -> f64) -> f64 {
        (0..self.states).map(|j| self.prob(context, j) * f(j)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn order_one_matches_first_order_chain() {
        let seq = vec![0usize, 1, 0, 1, 1, 0, 1, 0, 0, 1];
        let high = HigherOrderChain::estimate(&seq, 2, 1);
        let first = crate::markov::MarkovChain::estimate(&seq, 2);
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
