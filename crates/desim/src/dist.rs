//! Random-variate generators.
//!
//! The generators mirror what the CSIM simulation package offered the
//! original study: exponential interarrival times and empirical
//! distributions resampled from a measured log. Every generator implements
//! [`Variate`] (continuous, `f64`) and/or is a concrete discrete sampler.

use std::hash::{Hash, Hasher};

use crate::rng::RngStream;

/// A continuous random-variate generator.
pub trait Variate {
    /// Draws one sample.
    fn sample(&self, rng: &mut RngStream) -> f64;

    /// The theoretical mean of the distribution, used by workload
    /// calibration (e.g. converting a target utilization into an arrival
    /// rate).
    fn mean(&self) -> f64;
}

/// Exponential distribution with the given rate (1/mean), sampled by
/// inversion. The paper's model uses exponential interarrival times.
#[derive(Clone, Copy, Debug)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution with events per unit time `rate`.
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be positive, got {rate}");
        Exponential { rate }
    }

    /// Creates an exponential distribution with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be positive, got {mean}");
        Exponential { rate: 1.0 / mean }
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Variate for Exponential {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        -rng.uniform_pos().ln() / self.rate
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
}

impl Hash for Exponential {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Exponential { rate } = self;
        rate.to_bits().hash(state);
    }
}

/// A constant "distribution"; useful for validation (M/D/1) and for
/// deterministic stress workloads.
#[derive(Clone, Copy, Debug)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value` (must be non-negative and finite).
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0 && value.is_finite());
        Deterministic { value }
    }
}

impl Variate for Deterministic {
    #[inline]
    fn sample(&self, _rng: &mut RngStream) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }
}

/// Erlang-k distribution (sum of `k` i.i.d. exponentials), CV² = 1/k.
#[derive(Clone, Copy, Debug)]
pub struct Erlang {
    k: u32,
    stage: Exponential,
}

impl Erlang {
    /// Creates an Erlang distribution with `k` stages and overall mean
    /// `mean` (each stage has mean `mean / k`).
    pub fn with_mean(k: u32, mean: f64) -> Self {
        assert!(k >= 1, "Erlang needs at least one stage");
        Erlang { k, stage: Exponential::with_mean(mean / f64::from(k)) }
    }
}

impl Variate for Erlang {
    fn sample(&self, rng: &mut RngStream) -> f64 {
        (0..self.k).map(|_| self.stage.sample(rng)).sum()
    }

    fn mean(&self) -> f64 {
        f64::from(self.k) * self.stage.mean()
    }
}

/// Two-phase hyperexponential distribution (probabilistic mixture of two
/// exponentials), CV² ≥ 1. Used to model the high-variance service times
/// seen in production logs.
#[derive(Clone, Copy, Debug)]
pub struct HyperExponential {
    p: f64,
    a: Exponential,
    b: Exponential,
}

impl HyperExponential {
    /// With probability `p` draws from an exponential with mean `mean_a`,
    /// otherwise from one with mean `mean_b`.
    pub fn new(p: f64, mean_a: f64, mean_b: f64) -> Self {
        assert!((0.0..=1.0).contains(&p));
        HyperExponential { p, a: Exponential::with_mean(mean_a), b: Exponential::with_mean(mean_b) }
    }

    /// Fits a balanced two-phase hyperexponential to a target mean and
    /// squared coefficient of variation (`cv2 >= 1`).
    pub fn fit(mean: f64, cv2: f64) -> Self {
        assert!(cv2 >= 1.0, "hyperexponential requires CV^2 >= 1, got {cv2}");
        // Balanced-means fit: p chosen so both phases contribute equally.
        let x = ((cv2 - 1.0) / (cv2 + 1.0)).sqrt();
        let p = 0.5 * (1.0 + x);
        let mean_a = mean / (2.0 * p);
        let mean_b = mean / (2.0 * (1.0 - p));
        HyperExponential::new(p, mean_a, mean_b)
    }
}

impl Variate for HyperExponential {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        if rng.chance(self.p) {
            self.a.sample(rng)
        } else {
            self.b.sample(rng)
        }
    }

    fn mean(&self) -> f64 {
        self.p * self.a.mean() + (1.0 - self.p) * self.b.mean()
    }
}

impl Hash for HyperExponential {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let HyperExponential { p, a, b } = self;
        p.to_bits().hash(state);
        a.hash(state);
        b.hash(state);
    }
}

/// Feeds `xs` to `state` as its length and each value's bit pattern.
fn hash_floats<H: Hasher>(xs: &[f64], state: &mut H) {
    xs.len().hash(state);
    for x in xs {
        x.to_bits().hash(state);
    }
}

// ---------------------------------------------------------------------------
// Empirical distributions
// ---------------------------------------------------------------------------

/// A discrete empirical distribution over arbitrary `u32` values, sampled
/// in O(1) with Walker's alias method. This is how the measured DAS job
/// sizes drive the simulation.
///
/// ```
/// use desim::{EmpiricalDiscrete, RngStream};
/// // 70% small jobs, 30% whole-cluster jobs.
/// let d = EmpiricalDiscrete::new(&[(4, 0.7), (32, 0.3)]);
/// assert!((d.mean_value() - 12.4).abs() < 1e-12);
/// let mut rng = RngStream::new(42);
/// let x = d.sample_value(&mut rng);
/// assert!(x == 4 || x == 32);
/// ```
#[derive(Clone, Debug)]
pub struct EmpiricalDiscrete {
    values: Vec<u32>,
    probs: Vec<f64>,
    /// Alias tables: `prob[i]` is the probability of keeping column `i`,
    /// `alias[i]` the donor column otherwise.
    alias_prob: Vec<f64>,
    alias: Vec<usize>,
}

impl EmpiricalDiscrete {
    /// Builds a distribution from `(value, weight)` pairs. Weights need not
    /// be normalized but must be non-negative with a positive sum.
    ///
    /// # Panics
    /// Panics on an empty list, a negative weight, or a zero total weight.
    pub fn new(pairs: &[(u32, f64)]) -> Self {
        assert!(!pairs.is_empty(), "empirical distribution needs at least one value");
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
        assert!(
            pairs.iter().all(|&(_, w)| w >= 0.0 && w.is_finite()),
            "weights must be non-negative and finite"
        );
        assert!(total > 0.0, "total weight must be positive");

        let n = pairs.len();
        let values: Vec<u32> = pairs.iter().map(|&(v, _)| v).collect();
        let probs: Vec<f64> = pairs.iter().map(|&(_, w)| w / total).collect();

        // Walker/Vose alias construction.
        let mut alias_prob = vec![0.0f64; n];
        let mut alias = vec![0usize; n];
        let mut scaled: Vec<f64> = probs.iter().map(|p| p * n as f64).collect();
        let mut small: Vec<usize> = Vec::with_capacity(n);
        let mut large: Vec<usize> = Vec::with_capacity(n);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i);
            } else {
                large.push(i);
            }
        }
        while !small.is_empty() && !large.is_empty() {
            let s = small.pop().expect("checked non-empty");
            let l = *large.last().expect("checked non-empty");
            alias_prob[s] = scaled[s];
            alias[s] = l;
            scaled[l] = (scaled[l] + scaled[s]) - 1.0;
            if scaled[l] < 1.0 {
                large.pop();
                small.push(l);
            }
        }
        for i in large {
            alias_prob[i] = 1.0;
        }
        for i in small {
            alias_prob[i] = 1.0; // numerical leftovers
        }

        EmpiricalDiscrete { values, probs, alias_prob, alias }
    }

    /// Builds a distribution from raw observations (each observation gets
    /// weight 1). This is "resampling the log".
    pub fn from_observations(obs: &[u32]) -> Self {
        assert!(!obs.is_empty(), "no observations");
        let mut counts: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for &o in obs {
            *counts.entry(o).or_insert(0.0) += 1.0;
        }
        let pairs: Vec<(u32, f64)> = counts.into_iter().collect();
        EmpiricalDiscrete::new(&pairs)
    }

    /// Draws one value.
    #[inline]
    pub fn sample_value(&self, rng: &mut RngStream) -> u32 {
        let n = self.values.len();
        let col = rng.index(n);
        if rng.uniform() < self.alias_prob[col] {
            self.values[col]
        } else {
            self.values[self.alias[col]]
        }
    }

    /// The support (distinct values), in construction order.
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// Normalized probabilities aligned with [`Self::values`].
    pub fn probs(&self) -> &[f64] {
        &self.probs
    }

    /// Probability mass of a specific value (0 if not in the support).
    pub fn pmf(&self, value: u32) -> f64 {
        self.values.iter().zip(&self.probs).filter(|(v, _)| **v == value).map(|(_, p)| *p).sum()
    }

    /// Theoretical mean of the distribution.
    pub fn mean_value(&self) -> f64 {
        self.values.iter().zip(&self.probs).map(|(&v, &p)| f64::from(v) * p).sum()
    }

    /// Theoretical coefficient of variation.
    pub fn cv(&self) -> f64 {
        let m = self.mean_value();
        let m2: f64 = self
            .values
            .iter()
            .zip(&self.probs)
            .map(|(&v, &p)| f64::from(v) * f64::from(v) * p)
            .sum();
        let var = (m2 - m * m).max(0.0);
        var.sqrt() / m
    }

    /// A new distribution conditioned on `value <= cut` (renormalized).
    /// This is exactly how DAS-s-64 is derived from DAS-s-128 in the paper.
    ///
    /// # Panics
    /// Panics if nothing in the support is `<= cut`.
    pub fn truncated(&self, cut: u32) -> Self {
        let pairs: Vec<(u32, f64)> = self
            .values
            .iter()
            .zip(&self.probs)
            .filter(|(&v, _)| v <= cut)
            .map(|(&v, &p)| (v, p))
            .collect();
        assert!(!pairs.is_empty(), "truncation at {cut} empties the distribution");
        EmpiricalDiscrete::new(&pairs)
    }
}

impl Variate for EmpiricalDiscrete {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        f64::from(self.sample_value(rng))
    }

    fn mean(&self) -> f64 {
        self.mean_value()
    }
}

impl Hash for EmpiricalDiscrete {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The alias tables are a function of the probabilities.
        let EmpiricalDiscrete { values, probs, alias_prob: _, alias: _ } = self;
        values.hash(state);
        hash_floats(probs, state);
    }
}

/// A continuous empirical distribution defined by a piecewise-linear CDF
/// over bin edges — the continuous analogue used for service times
/// resampled from a log histogram.
#[derive(Clone, Debug)]
pub struct EmpiricalContinuous {
    /// Bin edges, strictly increasing, length `n + 1`.
    edges: Vec<f64>,
    /// Cumulative probability at each edge, `cum[0] = 0`, `cum[n] = 1`.
    cum: Vec<f64>,
    /// Quantile accelerator: `lookup[k]` is the last bin index `i` with
    /// `cum[i] <= k / LOOKUP_BINS` (clamped to the last bin), so
    /// [`Self::quantile`] starts its scan at most a few bins below the
    /// answer instead of binary-searching the whole CDF on every draw.
    lookup: Vec<u32>,
}

/// Resolution of the [`EmpiricalContinuous`] quantile lookup table.
const LOOKUP_BINS: usize = 256;

impl EmpiricalContinuous {
    /// Builds the distribution from histogram bins: `edges` are the `n+1`
    /// bin boundaries, `weights` the `n` bin masses (not necessarily
    /// normalized). Sampling is uniform within a bin.
    pub fn from_histogram(edges: &[f64], weights: &[f64]) -> Self {
        assert!(edges.len() >= 2, "need at least one bin");
        assert_eq!(edges.len(), weights.len() + 1, "edges must be weights+1");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1] && w[0].is_finite() && w[1].is_finite()),
            "edges must be strictly increasing and finite"
        );
        assert!(weights.iter().all(|&w| w >= 0.0 && w.is_finite()));
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "total weight must be positive");
        let mut cum = Vec::with_capacity(edges.len());
        cum.push(0.0);
        let mut acc = 0.0;
        for &w in weights {
            acc += w / total;
            cum.push(acc);
        }
        // Clamp the tail against floating-point drift.
        *cum.last_mut().expect("nonempty") = 1.0;
        let last = edges.len() - 2;
        let mut lookup = Vec::with_capacity(LOOKUP_BINS);
        let mut i = 0usize;
        for k in 0..LOOKUP_BINS {
            let u = k as f64 / LOOKUP_BINS as f64;
            while i + 1 < cum.len() && cum[i + 1] <= u {
                i += 1;
            }
            lookup.push(i.min(last) as u32);
        }
        EmpiricalContinuous { edges: edges.to_vec(), cum, lookup }
    }

    /// Inverse-CDF evaluation at `u ∈ [0,1]`.
    ///
    /// The bin holding `u` is the partition point (last `i` with
    /// `cum[i] <= u`, clamped to the last bin): the lookup table gives a
    /// lower bound and a short forward scan finishes. On flat CDF
    /// segments (`cum[i] == cum[i+1]`, i.e. zero-weight bins) this lands
    /// on the *last* edge of the flat run; since `u == cum[i]` there, the
    /// interpolation below degenerates to that edge either way.
    pub fn quantile(&self, u: f64) -> f64 {
        let u = u.clamp(0.0, 1.0);
        let last = self.edges.len() - 2;
        let k = ((u * LOOKUP_BINS as f64) as usize).min(LOOKUP_BINS - 1);
        let mut i = self.lookup[k] as usize;
        while i < last && self.cum[i + 1] <= u {
            i += 1;
        }
        let (c0, c1) = (self.cum[i], self.cum[i + 1]);
        let (e0, e1) = (self.edges[i], self.edges[i + 1]);
        if c1 > c0 {
            e0 + (e1 - e0) * (u - c0) / (c1 - c0)
        } else {
            e0
        }
    }

    /// The upper end of the support.
    pub fn max_value(&self) -> f64 {
        *self.edges.last().expect("nonempty")
    }
}

impl Variate for EmpiricalContinuous {
    #[inline]
    fn sample(&self, rng: &mut RngStream) -> f64 {
        self.quantile(rng.uniform())
    }

    fn mean(&self) -> f64 {
        // Uniform-within-bin => bin mean is the midpoint.
        let mut m = 0.0;
        for i in 0..self.edges.len() - 1 {
            let mass = self.cum[i + 1] - self.cum[i];
            m += mass * 0.5 * (self.edges[i] + self.edges[i + 1]);
        }
        m
    }
}

impl Hash for EmpiricalContinuous {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // The lookup table is a function of the CDF.
        let EmpiricalContinuous { edges, cum, lookup: _ } = self;
        hash_floats(edges, state);
        hash_floats(cum, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> RngStream {
        RngStream::new(20_030_622) // HPDC'03 date
    }

    fn sample_mean<V: Variate>(v: &V, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| v.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::with_mean(3.0);
        let m = sample_mean(&d, 200_000);
        assert!((m - 3.0).abs() < 0.05, "sample mean {m}");
        assert!((d.mean() - 3.0).abs() < 1e-12);
        assert!((Exponential::with_rate(0.5).mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn exponential_is_positive() {
        let d = Exponential::with_rate(1.0);
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) > 0.0);
        }
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(7.0);
        let mut r = rng();
        assert_eq!(d.sample(&mut r), 7.0);
        assert_eq!(d.mean(), 7.0);
    }

    #[test]
    fn erlang_mean_and_lower_variance() {
        let d = Erlang::with_mean(4, 2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        let m = sample_mean(&d, 100_000);
        assert!((m - 2.0).abs() < 0.03, "sample mean {m}");
    }

    #[test]
    fn hyperexponential_fit_matches_moments() {
        let d = HyperExponential::fit(10.0, 4.0);
        assert!((d.mean() - 10.0).abs() < 1e-9);
        let mut r = rng();
        let n = 400_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut r)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        let cv2 = var / (m * m);
        assert!((m - 10.0).abs() < 0.15, "mean {m}");
        assert!((cv2 - 4.0).abs() < 0.25, "cv2 {cv2}");
    }

    #[test]
    fn empirical_discrete_pmf_recovered() {
        let d = EmpiricalDiscrete::new(&[(1, 0.2), (2, 0.3), (64, 0.5)]);
        let mut r = rng();
        let n = 300_000;
        let mut counts = std::collections::HashMap::new();
        for _ in 0..n {
            *counts.entry(d.sample_value(&mut r)).or_insert(0u32) += 1;
        }
        for (v, p) in [(1u32, 0.2), (2, 0.3), (64, 0.5)] {
            let f = f64::from(counts[&v]) / n as f64;
            assert!((f - p).abs() < 0.01, "value {v}: freq {f} vs p {p}");
        }
    }

    #[test]
    fn empirical_discrete_mean_cv() {
        let d = EmpiricalDiscrete::new(&[(2, 0.5), (4, 0.5)]);
        assert!((d.mean_value() - 3.0).abs() < 1e-12);
        assert!((d.cv() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_from_observations() {
        let d = EmpiricalDiscrete::from_observations(&[1, 1, 1, 2]);
        assert!((d.pmf(1) - 0.75).abs() < 1e-12);
        assert!((d.pmf(2) - 0.25).abs() < 1e-12);
        assert_eq!(d.pmf(3), 0.0);
    }

    #[test]
    fn empirical_truncation_renormalizes() {
        let d = EmpiricalDiscrete::new(&[(1, 0.4), (64, 0.4), (128, 0.2)]);
        let t = d.truncated(64);
        assert!((t.pmf(1) - 0.5).abs() < 1e-12);
        assert!((t.pmf(64) - 0.5).abs() < 1e-12);
        assert_eq!(t.pmf(128), 0.0);
        // The mass cut away was the original's above 64.
        assert!((d.pmf(128) - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empties")]
    fn truncation_below_support_panics() {
        EmpiricalDiscrete::new(&[(10, 1.0)]).truncated(5);
    }

    #[test]
    fn empirical_continuous_quantiles() {
        let d = EmpiricalContinuous::from_histogram(&[0.0, 10.0, 20.0], &[1.0, 1.0]);
        assert!((d.quantile(0.0) - 0.0).abs() < 1e-12);
        assert!((d.quantile(0.5) - 10.0).abs() < 1e-12);
        assert!((d.quantile(1.0) - 20.0).abs() < 1e-12);
        assert!((d.quantile(0.25) - 5.0).abs() < 1e-12);
        assert!((d.mean() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn empirical_continuous_sampling_stays_in_support() {
        let d = EmpiricalContinuous::from_histogram(&[0.0, 60.0, 900.0], &[0.9, 0.1]);
        let mut r = rng();
        for _ in 0..20_000 {
            let x = d.sample(&mut r);
            assert!((0.0..=900.0).contains(&x));
        }
        assert_eq!(d.max_value(), 900.0);
    }

    #[test]
    fn alias_table_handles_skewed_weights() {
        // Highly skewed weights exercise the small/large alias bookkeeping.
        let pairs: Vec<(u32, f64)> = (1..=100).map(|v| (v, 1.0 / f64::from(v))).collect();
        let d = EmpiricalDiscrete::new(&pairs);
        let mut r = rng();
        let n = 200_000;
        let ones = (0..n).filter(|_| d.sample_value(&mut r) == 1).count();
        let expect = d.pmf(1);
        let freq = ones as f64 / n as f64;
        assert!((freq - expect).abs() < 0.01, "freq {freq} vs pmf {expect}");
    }
}
