//! Simulation-output statistics.
//!
//! Everything the experiment harness needs to turn raw event streams into
//! defensible numbers: streaming means and variances (Welford), time-
//! weighted averages for utilization-style quantities, histograms for the
//! density figures, and batch-means confidence intervals for steady-state
//! response times.

use crate::time::SimTime;

/// Streaming sample mean / variance via Welford's algorithm.
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Welford { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    /// Adds one observation.
    #[inline]
    pub fn add(&mut self, x: f64) {
        debug_assert!(x.is_finite(), "observation must be finite");
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample mean, or `None` with no observations. Use this instead of
    /// [`Welford::mean`] wherever 0.0 is a valid observation value —
    /// averaging an empty accumulator's 0.0 into downstream aggregates
    /// silently biases them.
    pub fn mean_opt(&self) -> Option<f64> {
        if self.n == 0 {
            None
        } else {
            Some(self.mean)
        }
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Coefficient of variation (std dev over mean; 0 if the mean is 0).
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m
        }
    }

    /// Smallest observation (∞ if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (−∞ if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. the number of
/// busy processors. Call [`TimeWeighted::update`] *before* changing the
/// value at the current simulation time.
#[derive(Clone, Debug)]
pub struct TimeWeighted {
    value: f64,
    last_change: SimTime,
    integral: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking with initial `value` at time `start`.
    pub fn new(start: SimTime, value: f64) -> Self {
        TimeWeighted { value, last_change: start, integral: 0.0, start }
    }

    /// Accumulates the current value up to `now`, then switches to
    /// `new_value`.
    pub fn update(&mut self, now: SimTime, new_value: f64) {
        debug_assert!(now >= self.last_change, "time went backwards");
        self.integral += self.value * (now - self.last_change).seconds();
        self.value = new_value;
        self.last_change = now;
    }

    /// Adds `delta` to the tracked value at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.value;
        self.update(now, v + delta);
    }

    /// The current value of the signal.
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Time-average over `[start, now]`.
    pub fn average(&self, now: SimTime) -> f64 {
        let span = (now - self.start).seconds();
        if span <= 0.0 {
            return self.value;
        }
        let integral = self.integral + self.value * (now - self.last_change).seconds();
        integral / span
    }

    /// Resets the accumulation window to begin at `now` (used to discard
    /// warm-up transients) while keeping the current value.
    pub fn reset_window(&mut self, now: SimTime) {
        self.integral = 0.0;
        self.last_change = now;
        self.start = now;
    }

    /// The raw integral ∫ value dt over `[start, now]`.
    pub fn integral(&self, now: SimTime) -> f64 {
        self.integral + self.value * (now - self.last_change).seconds()
    }
}

/// A fixed-width histogram over `[lo, hi)` with saturating under/overflow
/// bins; powers the density figures (Figs 1 and 2 of the paper).
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    width: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
}

impl Histogram {
    /// Creates a histogram of `nbins` equal bins spanning `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, nbins: usize) -> Self {
        assert!(nbins > 0 && hi > lo);
        Histogram {
            lo,
            width: (hi - lo) / nbins as f64,
            bins: vec![0; nbins],
            underflow: 0,
            overflow: 0,
            total: 0,
        }
    }

    /// Records one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        let idx = ((x - self.lo) / self.width) as usize;
        if idx >= self.bins.len() {
            self.overflow += 1;
        } else {
            self.bins[idx] += 1;
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[u64] {
        &self.bins
    }

    /// `(bin_midpoint, count)` pairs for plotting.
    pub fn series(&self) -> Vec<(f64, u64)> {
        self.bins
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + (i as f64 + 0.5) * self.width, c))
            .collect()
    }

    /// Observations below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Observations at or above the top of the range.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total observations including under/overflow.
    pub fn total(&self) -> u64 {
        self.total
    }
}

/// Upper 97.5 % quantile of Student's t distribution (two-sided 95 %
/// confidence), by table lookup with interpolation; converges to the normal
/// 1.96 for large samples.
pub fn t_975(df: u64) -> f64 {
    const TABLE: &[(u64, f64)] = &[
        (1, 12.706),
        (2, 4.303),
        (3, 3.182),
        (4, 2.776),
        (5, 2.571),
        (6, 2.447),
        (7, 2.365),
        (8, 2.306),
        (9, 2.262),
        (10, 2.228),
        (12, 2.179),
        (15, 2.131),
        (20, 2.086),
        (25, 2.060),
        (30, 2.042),
        (40, 2.021),
        (60, 2.000),
        (120, 1.980),
    ];
    if df == 0 {
        return f64::INFINITY;
    }
    // Exact table hits first — checking only the left end of each window
    // made the final entry (120) unreachable, so t_975(120) used to fall
    // through to the asymptote and understate the quantile.
    if let Some(&(_, t)) = TABLE.iter().find(|&&(d, _)| d == df) {
        return t;
    }
    for w in TABLE.windows(2) {
        let (d0, t0) = w[0];
        let (d1, t1) = w[1];
        if df < d1 {
            // Linear interpolation in 1/df, the standard approximation.
            let x0 = 1.0 / d0 as f64;
            let x1 = 1.0 / d1 as f64;
            let x = 1.0 / df as f64;
            return t1 + (t0 - t1) * (x - x1) / (x0 - x1);
        }
    }
    // Beyond the table: interpolate in 1/df between the last entry and
    // the normal limit (t → 1.96 as df → ∞), continuous at df = 120.
    let (d_last, t_last) = TABLE[TABLE.len() - 1];
    1.96 + (t_last - 1.96) * d_last as f64 / df as f64
}

/// A mean together with a two-sided 95 % confidence half-width.
#[derive(Clone, Copy, Debug, Default, serde::Serialize)]
pub struct Estimate {
    /// Point estimate.
    pub mean: f64,
    /// 95 % confidence half-width (∞ when it cannot be estimated).
    pub half_width: f64,
    /// Number of (batch) observations behind the estimate.
    pub n: u64,
}

// Hand-written `Deserialize`: an unestimable half-width is
// `f64::INFINITY`, which JSON can only carry as `null`. The derived impl
// would fail to read that null back into a plain f64, so checkpointed
// sweeps with single-replication (infinite-CI) points could never
// resume. Null (or a missing field) maps back to ∞ here.
impl serde::Deserialize for Estimate {
    fn from_value(v: &serde::value::Value) -> Result<Self, serde::value::Error> {
        use serde::value::field;
        let half_width =
            Option::<f64>::from_value(field(v, "half_width")?)?.unwrap_or(f64::INFINITY);
        Ok(Estimate {
            mean: f64::from_value(field(v, "mean")?)?,
            half_width,
            n: u64::from_value(field(v, "n")?)?,
        })
    }
}

impl Estimate {
    /// Relative half-width (`half_width / mean`), ∞ when the mean is 0.
    pub fn relative_error(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            (self.half_width / self.mean).abs()
        }
    }
}

/// Batch-means analysis for steady-state simulation output: observations
/// are grouped into fixed-size batches whose means are treated as
/// approximately independent samples.
#[derive(Clone, Debug)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Welford,
}

impl BatchMeans {
    /// Creates an analyzer with the given observations-per-batch.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size > 0);
        BatchMeans { batch_size, current: Welford::new(), batches: Welford::new() }
    }

    /// Adds one raw observation.
    pub fn add(&mut self, x: f64) {
        self.current.add(x);
        if self.current.count() == self.batch_size {
            self.batches.add(self.current.mean());
            self.current = Welford::new();
        }
    }

    /// Number of completed batches.
    pub fn batches(&self) -> u64 {
        self.batches.count()
    }

    /// Total raw observations consumed (including the open batch).
    pub fn observations(&self) -> u64 {
        self.batches.count() * self.batch_size + self.current.count()
    }

    /// The grand mean with a 95 % confidence half-width over batch means.
    pub fn estimate(&self) -> Estimate {
        let k = self.batches.count();
        if k == 0 {
            // Fall back to the raw mean of the open batch with no CI.
            return Estimate { mean: self.current.mean(), half_width: f64::INFINITY, n: 0 };
        }
        let mean = self.batches.mean();
        let half = if k >= 2 {
            t_975(k - 1) * self.batches.std_dev() / (k as f64).sqrt()
        } else {
            f64::INFINITY
        };
        Estimate { mean, half_width: half, n: k }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance of the same data is 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(w.min(), 2.0);
        assert_eq!(w.max(), 9.0);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 20.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.add(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.add(x);
        }
        for &x in &xs[37..] {
            b.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn welford_empty_merge() {
        let mut a = Welford::new();
        let mut b = Welford::new();
        b.add(3.0);
        a.merge(&b);
        assert_eq!(a.count(), 1);
        assert_eq!(a.mean(), 3.0);
        let empty = Welford::new();
        a.merge(&empty);
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::new(10.0), 4.0); // value 0 for 10s
        tw.update(SimTime::new(20.0), 2.0); // value 4 for 10s
                                            // value 2 for 20s
        let avg = tw.average(SimTime::new(40.0));
        // (0*10 + 4*10 + 2*20) / 40 = 80/40 = 2
        assert!((avg - 2.0).abs() < 1e-12);
        assert_eq!(tw.value(), 2.0);
    }

    #[test]
    fn time_weighted_add_and_reset() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 1.0);
        tw.add(SimTime::new(5.0), 2.0); // 1 for 5s, now 3
        tw.reset_window(SimTime::new(5.0));
        let avg = tw.average(SimTime::new(10.0)); // 3 for 5s after reset
        assert!((avg - 3.0).abs() < 1e-12);
        assert!((tw.integral(SimTime::new(10.0)) - 15.0).abs() < 1e-12);
    }

    #[test]
    fn time_weighted_zero_span() {
        let tw = TimeWeighted::new(SimTime::new(5.0), 7.0);
        assert_eq!(tw.average(SimTime::new(5.0)), 7.0);
    }

    #[test]
    fn histogram_bins_and_overflow() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.0, 2.5, 9.9, 10.0, -1.0, 100.0] {
            h.add(x);
        }
        assert_eq!(h.counts(), &[2, 1, 0, 0, 1]);
        assert_eq!(h.underflow(), 1);
        assert_eq!(h.overflow(), 2);
        assert_eq!(h.total(), 7);
        let series = h.series();
        assert_eq!(series[0], (1.0, 2));
    }

    #[test]
    fn t_table_endpoints() {
        assert!((t_975(1) - 12.706).abs() < 1e-9);
        assert!((t_975(10) - 2.228).abs() < 1e-9);
        // The >120 tail interpolates toward the normal limit in 1/df, so
        // huge df is close to (not exactly) 1.96.
        assert!((t_975(1_000_000) - 1.96).abs() < 1e-4);
        assert!(t_975(0).is_infinite());
        let t7 = t_975(7);
        assert!((t7 - 2.365).abs() < 1e-9);
        // Interpolated values are monotone.
        assert!(t_975(11) < t_975(10) && t_975(11) > t_975(12));
    }

    #[test]
    fn t_table_every_entry_is_exact() {
        // Regression: the window scan only exact-matched the left end of
        // each pair, so the last entry (120) fell through and returned
        // the asymptotic 1.96 instead of 1.980.
        const ENTRIES: &[(u64, f64)] = &[
            (1, 12.706),
            (2, 4.303),
            (3, 3.182),
            (4, 2.776),
            (5, 2.571),
            (6, 2.447),
            (7, 2.365),
            (8, 2.306),
            (9, 2.262),
            (10, 2.228),
            (12, 2.179),
            (15, 2.131),
            (20, 2.086),
            (25, 2.060),
            (30, 2.042),
            (40, 2.021),
            (60, 2.000),
            (120, 1.980),
        ];
        for &(df, t) in ENTRIES {
            assert!((t_975(df) - t).abs() < 1e-12, "t_975({df}) = {}, want {t}", t_975(df));
        }
    }

    #[test]
    fn t_table_interpolated_and_tail_values() {
        // Between-entry dfs interpolate strictly inside their bracket.
        for (lo, hi) in [(10, 12), (12, 15), (60, 120)] {
            for df in lo + 1..hi {
                let t = t_975(df);
                assert!(t < t_975(lo) && t > t_975(hi), "t_975({df}) = {t} outside bracket");
            }
        }
        // Beyond the table the quantile keeps decreasing toward 1.96 and
        // stays continuous at 120.
        assert!((t_975(120) - 1.980).abs() < 1e-12);
        let mut prev = t_975(120);
        for df in [121, 150, 240, 500, 5_000] {
            let t = t_975(df);
            assert!(t < prev && t > 1.96, "t_975({df}) = {t} not in (1.96, {prev})");
            prev = t;
        }
    }

    #[test]
    fn estimate_with_infinite_half_width_roundtrips() {
        // JSON carries ∞ as null; the manual impl maps it back so
        // checkpointed single-replication points survive a round trip.
        use serde::{Deserialize as _, Serialize as _};
        let roundtrip = |e: &Estimate| {
            let mut json = String::new();
            e.write_json(&mut json);
            Estimate::from_value(&serde::value::parse(&json).expect("valid JSON"))
                .expect("roundtrip")
        };
        let back = roundtrip(&Estimate { mean: 42.5, half_width: f64::INFINITY, n: 1 });
        assert_eq!(back.mean, 42.5);
        assert!(back.half_width.is_infinite());
        assert_eq!(back.n, 1);
        let back = roundtrip(&Estimate { mean: 10.0, half_width: 2.5, n: 7 });
        assert_eq!(back.half_width, 2.5);
        assert_eq!(back.n, 7);
    }

    #[test]
    fn welford_mean_opt_distinguishes_empty() {
        let mut w = Welford::new();
        assert_eq!(w.mean_opt(), None);
        assert_eq!(w.mean(), 0.0);
        w.add(0.0);
        assert_eq!(w.mean_opt(), Some(0.0));
    }

    #[test]
    fn batch_means_confidence_interval_covers_known_mean() {
        // I.i.d. uniform observations: mean 0.5.
        let mut bm = BatchMeans::new(100);
        let mut r = crate::rng::RngStream::new(99);
        for _ in 0..10_000 {
            bm.add(r.uniform());
        }
        assert_eq!(bm.batches(), 100);
        assert_eq!(bm.observations(), 10_000);
        let est = bm.estimate();
        assert!((est.mean - 0.5).abs() < est.half_width * 2.0, "estimate {est:?}");
        assert!(est.half_width < 0.01);
        assert!(est.relative_error() < 0.02);
    }

    #[test]
    fn batch_means_no_complete_batch() {
        let mut bm = BatchMeans::new(100);
        bm.add(3.0);
        bm.add(5.0);
        let est = bm.estimate();
        assert_eq!(est.n, 0);
        assert!((est.mean - 4.0).abs() < 1e-12);
        assert!(est.half_width.is_infinite());
    }
}
