//! Routing submitted jobs to local queues (§3).
//!
//! Policies with local queues (LS, LP) receive jobs either *balanced*
//! (every queue gets the same fraction) or *unbalanced* (one queue gets
//! 40 %, the remaining three 20 % each, in the paper's 4-cluster setup).

use std::hash::{Hash, Hasher};

use desim::RngStream;

/// A probabilistic assignment of submitted jobs to local queues.
#[derive(Clone, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QueueRouting {
    /// Normalized probability of each queue; cumulative form is derived
    /// on demand.
    weights: Vec<f64>,
}

impl Hash for QueueRouting {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let QueueRouting { weights } = self;
        weights.len().hash(state);
        for w in weights {
            w.to_bits().hash(state);
        }
    }
}

impl QueueRouting {
    /// Every one of `n` queues receives the same fraction of jobs.
    pub fn balanced(n: usize) -> Self {
        assert!(n > 0);
        QueueRouting { weights: vec![1.0 / n as f64; n] }
    }

    /// The paper's unbalanced case: the first queue receives twice the
    /// share of each of the others (40/20/20/20 for four queues).
    pub fn unbalanced(n: usize) -> Self {
        assert!(n >= 2, "unbalanced routing needs at least two queues");
        let rest = 1.0 / (n as f64 + 1.0);
        let mut weights = vec![rest; n];
        weights[0] = 2.0 * rest;
        QueueRouting { weights }
    }

    /// Arbitrary non-negative weights, normalized internally.
    pub fn custom(weights: &[f64]) -> Self {
        assert!(!weights.is_empty());
        assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "at least one weight must be positive");
        QueueRouting { weights: weights.iter().map(|w| w / total).collect() }
    }

    /// Number of queues.
    pub fn queues(&self) -> usize {
        self.weights.len()
    }

    /// The normalized share of each queue.
    pub fn shares(&self) -> &[f64] {
        &self.weights
    }

    /// Draws the queue index for one submitted job.
    pub fn pick(&self, rng: &mut RngStream) -> usize {
        let u = rng.uniform();
        let mut acc = 0.0;
        for (i, &w) in self.weights.iter().enumerate() {
            acc += w;
            if u < acc {
                return i;
            }
        }
        self.weights.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_shares() {
        let r = QueueRouting::balanced(4);
        assert_eq!(r.queues(), 4);
        for &s in r.shares() {
            assert!((s - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn unbalanced_is_40_20_20_20() {
        let r = QueueRouting::unbalanced(4);
        let s = r.shares();
        assert!((s[0] - 0.4).abs() < 1e-12);
        for &x in &s[1..] {
            assert!((x - 0.2).abs() < 1e-12);
        }
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn custom_normalizes() {
        let r = QueueRouting::custom(&[2.0, 1.0, 1.0]);
        assert!((r.shares()[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pick_matches_shares() {
        let r = QueueRouting::unbalanced(4);
        let mut rng = RngStream::new(77);
        let n = 100_000;
        let mut counts = [0u32; 4];
        for _ in 0..n {
            counts[r.pick(&mut rng)] += 1;
        }
        let f0 = f64::from(counts[0]) / f64::from(n);
        assert!((f0 - 0.4).abs() < 0.01, "first queue share {f0}");
        for (i, &c) in counts.iter().enumerate().skip(1) {
            let f = f64::from(c) / f64::from(n);
            assert!((f - 0.2).abs() < 0.01, "queue {i} share {f}");
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn all_zero_weights_rejected() {
        QueueRouting::custom(&[0.0, 0.0]);
    }
}
