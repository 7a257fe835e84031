//! Service-time distributions (§2.4): DAS-t-900 or any substitute.
//!
//! In the paper's model a job's *service time* (its runtime on fast local
//! networks) is independent of its size, drawn from the distribution of
//! the DAS1 log cut at 900 seconds. Exponential and deterministic
//! variants are provided for analytic validation of the simulator.

use std::hash::{Hash, Hasher};

use coalloc_trace::Trace;
use desim::{Duration, EmpiricalContinuous, Exponential, HyperExponential, RngStream, Variate};

/// Width of the histogram bins used when deriving an empirical
/// service-time distribution from a log, in seconds.
pub const DEFAULT_BIN_WIDTH: f64 = 10.0;

enum Inner {
    Empirical(EmpiricalContinuous),
    Exponential(Exponential),
    Hyper(HyperExponential),
    Deterministic(f64),
}

impl Clone for Inner {
    fn clone(&self) -> Self {
        match self {
            Inner::Empirical(e) => Inner::Empirical(e.clone()),
            Inner::Exponential(e) => Inner::Exponential(*e),
            Inner::Hyper(h) => Inner::Hyper(*h),
            Inner::Deterministic(v) => Inner::Deterministic(*v),
        }
    }
}

impl Hash for Inner {
    fn hash<H: Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Inner::Empirical(e) => e.hash(state),
            Inner::Exponential(e) => e.hash(state),
            Inner::Hyper(h) => h.hash(state),
            Inner::Deterministic(v) => v.to_bits().hash(state),
        }
    }
}

impl core::fmt::Debug for Inner {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Inner::Empirical(_) => write!(f, "Empirical"),
            Inner::Exponential(e) => write!(f, "Exponential(mean={})", e.mean()),
            Inner::Hyper(h) => write!(f, "HyperExp(mean={})", h.mean()),
            Inner::Deterministic(v) => write!(f, "Deterministic({v})"),
        }
    }
}

/// A distribution of base (non-extended) service times, optionally
/// capped at a maximum (the way the DAS-t-900 cut caps the log).
#[derive(Clone, Debug)]
pub struct ServiceDist {
    name: String,
    inner: Inner,
    cap: Option<f64>,
}

/// Hashes the whole distribution, its table or parameters included and
/// every float by its bit pattern.
impl Hash for ServiceDist {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let ServiceDist { name, inner, cap } = self;
        name.hash(state);
        inner.hash(state);
        cap.map(f64::to_bits).hash(state);
    }
}

impl ServiceDist {
    /// The paper's **DAS-t-900** distribution: service times of the
    /// (synthetic) DAS1 log cut at 900 seconds. Derived once from the
    /// default synthetic log and cached.
    pub fn das_t_900() -> Self {
        static CACHE: std::sync::OnceLock<EmpiricalContinuous> = std::sync::OnceLock::new();
        let emp = CACHE.get_or_init(|| {
            let log = coalloc_trace::generate_das1_log(&coalloc_trace::DasLogConfig::default());
            let cut = coalloc_trace::cut_by_runtime(&log, coalloc_trace::KILL_LIMIT_SECS);
            empirical_from_runtimes(&cut, DEFAULT_BIN_WIDTH)
        });
        ServiceDist {
            name: "DAS-t-900".to_string(),
            inner: Inner::Empirical(emp.clone()),
            cap: None,
        }
    }

    /// Derives the service-time distribution from a log by binning the
    /// observed runtimes (`bin_width` seconds per bin).
    pub fn from_trace(name: impl Into<String>, trace: &Trace, bin_width: f64) -> Self {
        assert!(!trace.is_empty(), "cannot derive a distribution from an empty log");
        ServiceDist {
            name: name.into(),
            inner: Inner::Empirical(empirical_from_runtimes(trace, bin_width)),
            cap: None,
        }
    }

    /// An exponential service time with the given mean (for M/M/c-style
    /// validation runs).
    pub fn exponential(mean_secs: f64) -> Self {
        ServiceDist {
            name: format!("Exp(mean={mean_secs}s)"),
            inner: Inner::Exponential(Exponential::with_mean(mean_secs)),
            cap: None,
        }
    }

    /// A two-phase hyperexponential service time fitted to the given mean
    /// and squared coefficient of variation (`cv2 >= 1`), for sensitivity
    /// studies on the service-time variability.
    pub fn hyperexponential(mean_secs: f64, cv2: f64) -> Self {
        ServiceDist {
            name: format!("HyperExp(mean={mean_secs}s, cv2={cv2})"),
            inner: Inner::Hyper(HyperExponential::fit(mean_secs, cv2)),
            cap: None,
        }
    }

    /// Returns this distribution hard-capped at `cap_secs` (samples above
    /// it are clamped, producing the kill-policy spike the DAS log shows).
    pub fn with_cap(mut self, cap_secs: f64) -> Self {
        assert!(cap_secs > 0.0 && cap_secs.is_finite());
        self.name = format!("{} capped at {cap_secs}s", self.name);
        self.cap = Some(cap_secs);
        self
    }

    /// A deterministic service time (for M/D/c-style validation runs).
    pub fn deterministic(secs: f64) -> Self {
        assert!(secs > 0.0 && secs.is_finite());
        ServiceDist { name: format!("Det({secs}s)"), inner: Inner::Deterministic(secs), cap: None }
    }

    /// Draws one base service time.
    pub fn sample(&self, rng: &mut RngStream) -> Duration {
        let mut s = match &self.inner {
            Inner::Empirical(e) => e.sample(rng),
            Inner::Exponential(e) => e.sample(rng),
            Inner::Hyper(h) => h.sample(rng),
            Inner::Deterministic(v) => *v,
        };
        if let Some(cap) = self.cap {
            s = s.min(cap);
        }
        Duration::new(s.max(f64::MIN_POSITIVE))
    }

    /// Mean base service time in seconds.
    pub fn mean_secs(&self) -> f64 {
        let raw = match &self.inner {
            Inner::Empirical(e) => e.mean(),
            Inner::Exponential(e) => e.mean(),
            Inner::Hyper(h) => h.mean(),
            Inner::Deterministic(v) => *v,
        };
        match self.cap {
            // E[min(X, c)] has no closed form across all inners; a capped
            // distribution estimates its mean by quadrature over samples.
            Some(cap) => {
                let mut rng = RngStream::new(0xCA9);
                let n = 20_000;
                (0..n)
                    .map(|_| {
                        let s = match &self.inner {
                            Inner::Empirical(e) => e.sample(&mut rng),
                            Inner::Exponential(e) => e.sample(&mut rng),
                            Inner::Hyper(h) => h.sample(&mut rng),
                            Inner::Deterministic(v) => *v,
                        };
                        s.min(cap)
                    })
                    .sum::<f64>()
                    / f64::from(n)
            }
            None => raw,
        }
    }

    /// The distribution's display name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

fn empirical_from_runtimes(trace: &Trace, bin_width: f64) -> EmpiricalContinuous {
    assert!(bin_width > 0.0);
    let max = trace.jobs.iter().map(|j| j.runtime).fold(0.0f64, f64::max).max(bin_width);
    let nbins = (max / bin_width).ceil() as usize;
    let hi = bin_width * nbins as f64;
    let mut weights = vec![0.0f64; nbins];
    for j in &trace.jobs {
        let idx = ((j.runtime / bin_width) as usize).min(nbins - 1);
        weights[idx] += 1.0;
    }
    let edges: Vec<f64> = (0..=nbins).map(|i| hi * i as f64 / nbins as f64).collect();
    EmpiricalContinuous::from_histogram(&edges, &weights)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_t_900_is_bounded_and_short_biased() {
        let d = ServiceDist::das_t_900();
        let mut rng = RngStream::new(1);
        let mut under_100 = 0;
        let n = 20_000;
        for _ in 0..n {
            let s = d.sample(&mut rng).seconds();
            assert!(s > 0.0 && s <= 900.0, "sample {s} out of [0, 900]");
            if s <= 100.0 {
                under_100 += 1;
            }
        }
        // Fig. 2: the bulk of jobs are very short.
        assert!(f64::from(under_100) / f64::from(n) > 0.4);
        let m = d.mean_secs();
        assert!(m > 50.0 && m < 400.0, "mean {m}");
        assert_eq!(d.name(), "DAS-t-900");
    }

    #[test]
    fn das_t_900_is_deterministic_across_calls() {
        let a = ServiceDist::das_t_900();
        let b = ServiceDist::das_t_900();
        assert!((a.mean_secs() - b.mean_secs()).abs() < 1e-12);
    }

    #[test]
    fn exponential_service_mean() {
        let d = ServiceDist::exponential(120.0);
        assert_eq!(d.mean_secs(), 120.0);
        let mut rng = RngStream::new(2);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut rng).seconds()).sum::<f64>() / f64::from(n);
        assert!((mean - 120.0).abs() < 2.0, "sample mean {mean}");
    }

    #[test]
    fn deterministic_service() {
        let d = ServiceDist::deterministic(60.0);
        let mut rng = RngStream::new(3);
        assert_eq!(d.sample(&mut rng).seconds(), 60.0);
        assert_eq!(d.mean_secs(), 60.0);
    }

    #[test]
    fn hyperexponential_service() {
        let d = ServiceDist::hyperexponential(200.0, 4.0);
        assert!((d.mean_secs() - 200.0).abs() < 1e-6);
        let mut rng = RngStream::new(9);
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng).seconds()).collect();
        let mean = xs.iter().sum::<f64>() / f64::from(n);
        assert!((mean - 200.0).abs() < 5.0, "mean {mean}");
    }

    #[test]
    fn cap_clamps_and_shifts_the_mean() {
        let d = ServiceDist::exponential(300.0).with_cap(900.0);
        let mut rng = RngStream::new(10);
        for _ in 0..20_000 {
            assert!(d.sample(&mut rng).seconds() <= 900.0);
        }
        // E[min(Exp(300), 900)] = 300 (1 - e^-3) ≈ 285.7.
        let exact = 300.0 * (1.0 - (-3.0f64).exp());
        assert!((d.mean_secs() - exact).abs() < 5.0, "{} vs {exact}", d.mean_secs());
        assert!(d.name().contains("capped"));
    }

    #[test]
    fn from_trace_respects_cut() {
        let log = coalloc_trace::generate_das1_log(&coalloc_trace::DasLogConfig {
            jobs: 5_000,
            ..Default::default()
        });
        let cut = coalloc_trace::cut_by_runtime(&log, 900.0);
        let d = ServiceDist::from_trace("cut", &cut, 10.0);
        let mut rng = RngStream::new(4);
        for _ in 0..5_000 {
            assert!(d.sample(&mut rng).seconds() <= 900.0 + 1e-9);
        }
        // Binned mean tracks the raw log mean within a bin width.
        let raw = coalloc_trace::runtime_moments(&cut).mean;
        assert!((d.mean_secs() - raw).abs() < 10.0, "{} vs {raw}", d.mean_secs());
    }
}
