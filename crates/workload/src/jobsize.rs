//! Total-job-size distributions (§2.4): DAS-s-128, DAS-s-64, or any
//! distribution derived from a log or supplied by the user.

use std::hash::{Hash, Hasher};

use coalloc_trace::Trace;
use desim::{EmpiricalDiscrete, RngStream};

/// A distribution of total job sizes (processor counts).
#[derive(Clone, Debug)]
pub struct JobSizeDist {
    name: String,
    dist: EmpiricalDiscrete,
    max: u32,
}

impl Hash for JobSizeDist {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let JobSizeDist { name, dist, max } = self;
        name.hash(state);
        dist.hash(state);
        max.hash(state);
    }
}

impl JobSizeDist {
    /// The paper's **DAS-s-128** distribution: the job-size distribution
    /// of the (synthetic) DAS1 log of the largest, 128-processor cluster.
    /// Its table and alias tables are built once and cloned.
    pub fn das_s_128() -> Self {
        static CACHE: std::sync::OnceLock<JobSizeDist> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| JobSizeDist::custom("DAS-s-128", &coalloc_trace::das1_size_pmf()))
            .clone()
    }

    /// The paper's **DAS-s-64** distribution: DAS-s-128 cut at 64
    /// processors and renormalized, introduced "to check whether limiting
    /// the total job size improves the performance".
    pub fn das_s_64() -> Self {
        let base = Self::das_s_128();
        let dist = base.dist.truncated(64);
        JobSizeDist { name: "DAS-s-64".to_string(), max: 64, dist }
    }

    /// Derives the size distribution from a workload log by resampling the
    /// observed sizes (the paper's method).
    pub fn from_trace(name: impl Into<String>, trace: &Trace) -> Self {
        assert!(!trace.is_empty(), "cannot derive a distribution from an empty log");
        let sizes: Vec<u32> = trace.jobs.iter().map(|j| j.size).collect();
        let dist = EmpiricalDiscrete::from_observations(&sizes);
        let max = *sizes.iter().max().expect("non-empty");
        JobSizeDist { name: name.into(), dist, max }
    }

    /// A uniform distribution over `lo..=hi` processors.
    pub fn uniform(lo: u32, hi: u32) -> Self {
        assert!(lo >= 1 && lo <= hi, "need 1 <= lo <= hi");
        let pmf: Vec<(u32, f64)> = (lo..=hi).map(|v| (v, 1.0)).collect();
        JobSizeDist::custom(format!("uniform[{lo},{hi}]"), &pmf)
    }

    /// Builds a distribution from explicit `(size, weight)` pairs.
    pub fn custom(name: impl Into<String>, pmf: &[(u32, f64)]) -> Self {
        assert!(pmf.iter().all(|&(v, _)| v > 0), "job sizes must be positive");
        let dist = EmpiricalDiscrete::new(pmf);
        let max =
            pmf.iter().filter(|&&(_, w)| w > 0.0).map(|&(v, _)| v).max().expect("non-empty pmf");
        JobSizeDist { name: name.into(), dist, max }
    }

    /// This distribution cut at `max_size` and renormalized.
    pub fn truncated(&self, max_size: u32) -> Self {
        JobSizeDist {
            name: format!("{} (cut at {max_size})", self.name),
            dist: self.dist.truncated(max_size),
            max: self.max.min(max_size),
        }
    }

    /// Draws a total job size.
    #[inline]
    pub fn sample(&self, rng: &mut RngStream) -> u32 {
        self.dist.sample_value(rng)
    }

    /// The distribution's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The largest size with positive mass.
    pub fn max_size(&self) -> u32 {
        self.max
    }

    /// Mean total job size.
    pub fn mean(&self) -> f64 {
        self.dist.mean_value()
    }

    /// Coefficient of variation of the total job size.
    pub fn cv(&self) -> f64 {
        self.dist.cv()
    }

    /// Probability mass at `size`.
    pub fn pmf(&self, size: u32) -> f64 {
        self.dist.pmf(size)
    }

    /// `(size, probability)` pairs over the support, ascending by size.
    pub fn support(&self) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> =
            self.dist.values().iter().zip(self.dist.probs()).map(|(&s, &p)| (s, p)).collect();
        v.sort_unstable_by_key(|&(s, _)| s);
        v
    }

    /// Expectation of `f(size)` under the distribution.
    pub fn expect(&self, mut f: impl FnMut(u32) -> f64) -> f64 {
        self.dist.values().iter().zip(self.dist.probs()).map(|(&s, &p)| p * f(s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_s_128_matches_table1() {
        let d = JobSizeDist::das_s_128();
        assert_eq!(d.max_size(), 128);
        assert!((d.pmf(64) - 0.190).abs() < 1e-12);
        assert!((d.pmf(128) - 0.012).abs() < 1e-12);
        assert_eq!(d.support().len(), 58);
        // The paper's log has mean around two dozen processors.
        let m = d.mean();
        assert!(m > 15.0 && m < 35.0, "mean {m}");
    }

    #[test]
    fn the_cached_das_s_128_equals_a_fresh_build() {
        let cached = JobSizeDist::das_s_128();
        let fresh = JobSizeDist::custom("DAS-s-128", &coalloc_trace::das1_size_pmf());
        let hash = |d: &JobSizeDist| {
            let mut state = std::hash::DefaultHasher::new();
            d.hash(&mut state);
            state.finish()
        };
        assert_eq!(hash(&cached), hash(&fresh));
        assert_eq!(hash(&JobSizeDist::das_s_128()), hash(&fresh), "a second call too");
        let draws = |d: &JobSizeDist| {
            let mut rng = RngStream::new(2003);
            (0..10_000).map(|_| d.sample(&mut rng)).collect::<Vec<u32>>()
        };
        assert_eq!(draws(&cached), draws(&fresh));
    }

    #[test]
    fn das_s_64_drops_the_tail() {
        let d = JobSizeDist::das_s_64();
        assert_eq!(d.max_size(), 64);
        assert_eq!(d.pmf(128), 0.0);
        assert!(d.pmf(64) > 0.190, "mass renormalized upward");
        assert!(d.mean() < JobSizeDist::das_s_128().mean());
    }

    #[test]
    fn sampling_respects_support() {
        let d = JobSizeDist::das_s_64();
        let mut rng = RngStream::new(42);
        for _ in 0..10_000 {
            let s = d.sample(&mut rng);
            assert!((1..=64).contains(&s));
        }
    }

    #[test]
    fn from_trace_resamples_log() {
        let log = coalloc_trace::generate_das1_log(&coalloc_trace::DasLogConfig {
            jobs: 5_000,
            ..Default::default()
        });
        let d = JobSizeDist::from_trace("log", &log);
        assert_eq!(d.max_size(), 128);
        let m_log = coalloc_trace::size_moments(&log).mean;
        assert!((d.mean() - m_log).abs() < 1e-9, "resampled mean equals log mean");
    }

    #[test]
    fn expect_and_support_consistent() {
        let d = JobSizeDist::custom("two-point", &[(2, 0.5), (6, 0.5)]);
        assert!((d.mean() - 4.0).abs() < 1e-12);
        assert!((d.expect(|s| f64::from(s) * f64::from(s)) - 20.0).abs() < 1e-12);
        assert_eq!(d.support(), vec![(2, 0.5), (6, 0.5)]);
        assert_eq!(d.name(), "two-point");
    }

    #[test]
    fn uniform_constructor() {
        let d = JobSizeDist::uniform(4, 7);
        assert_eq!(d.max_size(), 7);
        assert!((d.mean() - 5.5).abs() < 1e-12);
        assert!((d.pmf(4) - 0.25).abs() < 1e-12);
        assert_eq!(d.pmf(8), 0.0);
    }

    #[test]
    fn truncation_chain() {
        let d = JobSizeDist::das_s_128().truncated(32);
        assert_eq!(d.max_size(), 32);
        let total: f64 = d.support().iter().map(|&(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
