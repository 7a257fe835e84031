//! The complete workload model: total-size distribution, splitting rule,
//! service-time distribution and wide-area extension factor, with the
//! closed-form gross/net analysis of §4.

use std::hash::{Hash, Hasher};

use desim::{Duration, RngStream};

use crate::arrival::rate_for_utilization;
use crate::jobsize::JobSizeDist;
use crate::request::{component_count_fractions, JobRequest, RequestKind};
use crate::service::ServiceDist;
use crate::split::{component_count, split};

/// The wide-area service-time extension factor for multi-component jobs.
///
/// The paper fixes this at 1.25: measured wide-area application slowdowns
/// do not exceed it, and Ernemann et al. (CCGrid'02) conclude co-allocation
/// pays off while the extension factor stays at or below 1.25.
pub const EXTENSION_FACTOR: f64 = 1.25;

/// How much placement freedom a job grants the scheduler after
/// submission — the disposition axis of the malleability taxonomy
/// (Feitelson & Rudolph's rigid/moldable/malleable classes).
///
/// The paper's experiments are all `Rigid`; the other two are the
/// scenario extensions motivated by the malleable-scheduling literature.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum JobDisposition {
    /// The component split is fixed at submission (the paper's model).
    #[default]
    Rigid,
    /// The scheduler picks the component split at start time against the
    /// current idle processors; once started the shape is frozen.
    Moldable,
    /// Moldable, plus the shape may change *while running*: jobs grow
    /// onto idle processors at departures and shrink away from failed
    /// clusters instead of being killed.
    Malleable,
}

impl JobDisposition {
    /// Parses a disposition name as written on a command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "rigid" => Some(JobDisposition::Rigid),
            "moldable" => Some(JobDisposition::Moldable),
            "malleable" => Some(JobDisposition::Malleable),
            _ => None,
        }
    }

    /// The canonical lowercase label (inverse of [`JobDisposition::parse`]).
    pub fn label(self) -> &'static str {
        match self {
            JobDisposition::Rigid => "rigid",
            JobDisposition::Moldable => "moldable",
            JobDisposition::Malleable => "malleable",
        }
    }
}

impl core::fmt::Display for JobDisposition {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.label())
    }
}

impl core::str::FromStr for JobDisposition {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        JobDisposition::parse(s)
            .ok_or_else(|| format!("unknown disposition `{s}` (rigid|moldable|malleable)"))
    }
}

/// One sampled job: its (already split) request and its base service time.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The unordered request (components non-increasing).
    pub request: JobRequest,
    /// Base service time (fast local communication only).
    pub base_service: Duration,
}

/// A complete workload model.
///
/// ```
/// use coalloc_workload::Workload;
/// let w = Workload::das(16);
/// // The §4 closed form: gross/net ratio at limit 16 is 1.218.
/// assert!((w.gross_net_ratio() - 1.2181).abs() < 0.001);
/// // About half the jobs are multi-component at this limit.
/// assert!((w.multi_fraction() - 0.487).abs() < 0.005);
/// ```
#[derive(Clone, Debug)]
pub struct Workload {
    /// Distribution of total job sizes.
    pub sizes: JobSizeDist,
    /// Distribution of base service times (independent of size).
    pub service: ServiceDist,
    /// Job-component-size limit (§2.4); totals above it are split.
    pub limit: u32,
    /// Number of clusters components may be spread over.
    pub clusters: usize,
    /// Wide-area extension factor applied to multi-component jobs.
    pub extension: f64,
    /// Additional extension per component beyond the second (default 0:
    /// the paper's constant factor). With a positive penalty a job spread
    /// over `n` clusters runs `extension + penalty·(n−2)` times longer —
    /// a refinement of the communication model of the authors' JSSPP'01
    /// study, where wider spreads mean more wide-area traffic.
    pub spread_penalty: f64,
    /// The request structure jobs are submitted with. The paper's
    /// multicluster experiments use `Unordered`; `Ordered` and `Flexible`
    /// are the JSSPP-taxonomy extensions.
    pub request_kind: RequestKind,
    /// Size–service correlation exponent α (default 0: the paper's
    /// independence assumption). With α > 0 a job of size `s` draws its
    /// service time scaled by `(s / E[s])^α`, renormalized so the
    /// *mean* service time is unchanged — bigger jobs run longer, as
    /// real logs often show.
    pub size_service_exponent: f64,
}

/// Hashes every field, the size and service-time tables included and
/// every float by its bit pattern.
impl Hash for Workload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let Workload {
            sizes,
            service,
            limit,
            clusters,
            extension,
            spread_penalty,
            request_kind,
            size_service_exponent,
        } = self;
        sizes.hash(state);
        service.hash(state);
        limit.hash(state);
        clusters.hash(state);
        extension.to_bits().hash(state);
        spread_penalty.to_bits().hash(state);
        request_kind.hash(state);
        size_service_exponent.to_bits().hash(state);
    }
}

impl Workload {
    /// The paper's baseline multicluster workload: DAS-s-128 sizes,
    /// DAS-t-900 service times, 4 clusters, extension 1.25, and the given
    /// component-size limit (16, 24 or 32 in the paper).
    pub fn das(limit: u32) -> Self {
        Workload {
            sizes: JobSizeDist::das_s_128(),
            service: ServiceDist::das_t_900(),
            limit,
            clusters: 4,
            extension: EXTENSION_FACTOR,
            spread_penalty: 0.0,
            request_kind: RequestKind::Unordered,
            size_service_exponent: 0.0,
        }
    }

    /// The DAS-s-64 variant of [`Workload::das`] (§3.2): the size
    /// distribution cut at 64 processors.
    pub fn das_cut64(limit: u32) -> Self {
        Workload { sizes: JobSizeDist::das_s_64(), ..Workload::das(limit) }
    }

    /// The single-cluster comparison workload (§2.3): total requests only,
    /// so no splitting (limit = max size), one "cluster", no extension
    /// ever applies.
    pub fn single_cluster() -> Self {
        let sizes = JobSizeDist::das_s_128();
        let limit = sizes.max_size();
        Workload {
            sizes,
            service: ServiceDist::das_t_900(),
            limit,
            clusters: 1,
            extension: EXTENSION_FACTOR,
            spread_penalty: 0.0,
            request_kind: RequestKind::Total,
            size_service_exponent: 0.0,
        }
    }

    /// Single-cluster workload over DAS-s-64.
    pub fn single_cluster_cut64() -> Self {
        let sizes = JobSizeDist::das_s_64();
        let limit = sizes.max_size();
        Workload { sizes, limit, ..Workload::single_cluster() }
    }

    /// Builds a fully custom workload with the paper's defaults for the
    /// remaining knobs (extension 1.25, no spread penalty, unordered
    /// requests). Prefer this over struct literals: new knobs get sound
    /// defaults instead of breaking your build.
    pub fn custom(sizes: JobSizeDist, service: ServiceDist, limit: u32, clusters: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        assert!(limit > 0, "component-size limit must be positive");
        Workload {
            sizes,
            service,
            limit,
            clusters,
            extension: EXTENSION_FACTOR,
            spread_penalty: 0.0,
            request_kind: if clusters == 1 { RequestKind::Total } else { RequestKind::Unordered },
            size_service_exponent: 0.0,
        }
    }

    /// Returns this workload submitting the given request structure.
    pub fn with_request_kind(mut self, kind: RequestKind) -> Self {
        self.request_kind = kind;
        self
    }

    /// Returns this workload with its component split capped at the given
    /// number of clusters — the actual cluster count of the system under
    /// test, not the paper's hard-coded 4. A job's total size is split
    /// into at most `clusters` components, so heterogeneous systems with
    /// more (or fewer) clusters than the DAS testbed sample consistently.
    pub fn with_clusters(mut self, clusters: usize) -> Self {
        assert!(clusters > 0, "need at least one cluster");
        self.clusters = clusters;
        self
    }

    /// Returns this workload with the given constant extension factor.
    pub fn with_extension(mut self, extension: f64) -> Self {
        assert!(extension >= 1.0, "extension factor must be >= 1");
        self.extension = extension;
        self
    }

    /// The size-dependent service-time multiplier: `(s/E[s])^α`
    /// normalized so the mean service time over the size distribution is
    /// unchanged. Identically 1 under the paper's independence assumption
    /// (α = 0).
    pub fn service_factor(&self, size: u32) -> f64 {
        let alpha = self.size_service_exponent;
        if alpha == 0.0 {
            return 1.0;
        }
        let mean = self.sizes.mean();
        let norm = self.sizes.expect(|s| (f64::from(s) / mean).powf(alpha));
        (f64::from(size) / mean).powf(alpha) / norm
    }

    /// The wide-area extension factor for a job spanning `components`
    /// clusters: 1 for a single cluster; `extension` for two;
    /// `extension + spread_penalty·(n−2)` beyond.
    pub fn extension_factor(&self, components: usize) -> f64 {
        if components <= 1 {
            1.0
        } else {
            self.extension + self.spread_penalty * (components as f64 - 2.0)
        }
    }

    /// Draws one job. Size and service streams are separate so that
    /// common-random-number comparisons across policies stay aligned
    /// (ordered requests additionally draw their target clusters from the
    /// size stream).
    pub fn sample(&self, size_rng: &mut RngStream, service_rng: &mut RngStream) -> JobSpec {
        let total = self.sizes.sample(size_rng);
        let request = match self.request_kind {
            RequestKind::Unordered => JobRequest::from_total(total, self.limit, self.clusters),
            RequestKind::Flexible => JobRequest::flexible(total, self.limit, self.clusters),
            RequestKind::Total => JobRequest::total_request(total),
            RequestKind::Ordered => {
                // Users pick the clusters: a uniform random set of
                // distinct clusters for the split components.
                let components = split(total, self.limit, self.clusters);
                let mut idx: Vec<usize> = (0..self.clusters).collect();
                size_rng.shuffle(&mut idx);
                idx.truncate(components.len());
                JobRequest::ordered(components, idx)
            }
        };
        let base_service = self.service.sample(service_rng).scaled(self.service_factor(total));
        JobSpec { request, base_service }
    }

    /// Whether a job of the given total size becomes multi-component.
    pub fn is_multi(&self, total: u32) -> bool {
        component_count(total, self.limit, self.clusters) > 1
    }

    /// Fraction of jobs that are multi-component (extended).
    pub fn multi_fraction(&self) -> f64 {
        self.sizes.expect(|s| if self.is_multi(s) { 1.0 } else { 0.0 })
    }

    /// The paper's Table 2 row for this workload: fractions of jobs with
    /// 1..=clusters components.
    pub fn component_count_fractions(&self) -> Vec<f64> {
        component_count_fractions(&self.sizes, self.limit, self.clusters)
    }

    /// The §4 closed form: the ratio of gross to net utilization is the
    /// size-weighted mean extension, `E[size·w(size)] / E[size]` with
    /// `w = extension` for multi-component sizes and 1 otherwise (sizes
    /// and service times being independent).
    ///
    /// The span entering `w` is the *unordered split* component count
    /// for every request kind. That is exact for [`RequestKind::Unordered`]
    /// (the split is the request), for [`RequestKind::Ordered`] (the users
    /// pick clusters but keep the same split), and for
    /// [`RequestKind::Total`] (single-cluster systems never extend). For
    /// [`RequestKind::Flexible`] it is an *upper bound*: the scheduler may
    /// coalesce a splittable request into fewer components (ultimately one
    /// cluster, dodging the extension entirely), so the measured gross
    /// utilization undershoots the offered value computed from this ratio.
    /// `tests/extensions.rs` cross-checks measured vs offered per kind.
    pub fn gross_net_ratio(&self) -> f64 {
        let weighted = self.sizes.expect(|s| {
            let n = component_count(s, self.limit, self.clusters);
            f64::from(s) * self.extension_factor(n) * self.service_factor(s)
        });
        let net = self.sizes.expect(|s| f64::from(s) * self.service_factor(s));
        weighted / net
    }

    /// Mean *gross* processor-seconds demanded per job:
    /// `E[size·w(size)] · E[S]`, with the same unordered-split span
    /// convention as [`Workload::gross_net_ratio`] (exact for ordered /
    /// unordered / total requests, an upper bound for flexible ones).
    pub fn mean_gross_work(&self) -> f64 {
        let weighted = self.sizes.expect(|s| {
            let n = component_count(s, self.limit, self.clusters);
            f64::from(s) * self.extension_factor(n) * self.service_factor(s)
        });
        weighted * self.service.mean_secs()
    }

    /// Mean *net* processor-seconds demanded per job:
    /// `E[size · E[S|size]]` (just `E[size]·E[S]` under independence).
    pub fn mean_net_work(&self) -> f64 {
        self.sizes.expect(|s| f64::from(s) * self.service_factor(s)) * self.service.mean_secs()
    }

    /// The arrival rate producing a target offered *gross* utilization on
    /// a system of `capacity` processors. Because the gross work per job
    /// uses the unordered-split spans (see [`Workload::gross_net_ratio`]),
    /// flexible workloads driven at this rate *carry* slightly less than
    /// the target whenever the scheduler coalesces requests.
    pub fn rate_for_gross_utilization(&self, utilization: f64, capacity: u32) -> f64 {
        rate_for_utilization(utilization, capacity, self.mean_gross_work())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn das_workload_shape() {
        let w = Workload::das(16);
        assert_eq!(w.clusters, 4);
        assert_eq!(w.extension, 1.25);
        let mut s = RngStream::new(1).labelled("sizes");
        let mut t = RngStream::new(1).labelled("service");
        for _ in 0..2_000 {
            let job = w.sample(&mut s, &mut t);
            assert!(job.request.num_components() <= 4);
            assert!(job.base_service.seconds() > 0.0);
            if job.request.total().div_ceil(16) <= 4 {
                assert!(job.request.max_component() <= 16);
            }
        }
    }

    #[test]
    fn single_cluster_never_splits() {
        let w = Workload::single_cluster();
        assert_eq!(w.clusters, 1);
        assert_eq!(w.multi_fraction(), 0.0);
        assert!((w.gross_net_ratio() - 1.0).abs() < 1e-12);
        let mut s = RngStream::new(2).labelled("sizes");
        let mut t = RngStream::new(2).labelled("service");
        for _ in 0..500 {
            assert!(!w.sample(&mut s, &mut t).request.is_multi());
        }
    }

    #[test]
    fn gross_net_ratio_ordering() {
        // §4: the smaller the limit, the more multi-component jobs, the
        // larger the gross/net gap.
        let r16 = Workload::das(16).gross_net_ratio();
        let r24 = Workload::das(24).gross_net_ratio();
        let r32 = Workload::das(32).gross_net_ratio();
        assert!(r16 > r24 && r24 > r32, "{r16} {r24} {r32}");
        assert!(r32 > 1.0 && r16 < 1.25, "ratios bounded by 1 and the extension");
    }

    #[test]
    fn gross_net_ratio_extension_one_is_identity() {
        let mut w = Workload::das(16);
        w.extension = 1.0;
        assert!((w.gross_net_ratio() - 1.0).abs() < 1e-12);
        assert!((w.mean_gross_work() - w.mean_net_work()).abs() < 1e-9);
    }

    #[test]
    fn multi_fraction_matches_table2() {
        let w = Workload::das(16);
        let f = w.component_count_fractions();
        assert!((w.multi_fraction() - (1.0 - f[0])).abs() < 1e-12);
    }

    #[test]
    fn rate_scales_with_utilization_and_capacity() {
        let w = Workload::das(24);
        let r1 = w.rate_for_gross_utilization(0.5, 128);
        let r2 = w.rate_for_gross_utilization(1.0, 128);
        assert!((r2 / r1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn extension_factor_shape() {
        let mut w = Workload::das(16);
        assert_eq!(w.extension_factor(1), 1.0);
        assert_eq!(w.extension_factor(2), 1.25);
        assert_eq!(w.extension_factor(4), 1.25, "constant factor by default");
        w.spread_penalty = 0.1;
        assert!((w.extension_factor(3) - 1.35).abs() < 1e-12);
        assert!((w.extension_factor(4) - 1.45).abs() < 1e-12);
        assert_eq!(w.extension_factor(1), 1.0, "single-cluster jobs never pay");
        // A positive penalty raises the gross/net ratio and offered work.
        let base = Workload::das(16);
        assert!(w.gross_net_ratio() > base.gross_net_ratio());
        assert!(w.mean_gross_work() > base.mean_gross_work());
    }

    #[test]
    fn custom_builder_defaults() {
        let w = Workload::custom(JobSizeDist::das_s_64(), ServiceDist::deterministic(10.0), 16, 4);
        assert_eq!(w.extension, EXTENSION_FACTOR);
        assert_eq!(w.spread_penalty, 0.0);
        assert_eq!(w.request_kind, RequestKind::Unordered);
        let one =
            Workload::custom(JobSizeDist::das_s_64(), ServiceDist::deterministic(10.0), 64, 1);
        assert_eq!(one.request_kind, RequestKind::Total);
        let e = Workload::das(16).with_extension(1.5);
        assert_eq!(e.extension, 1.5);
    }

    #[test]
    fn size_service_correlation() {
        let mut w = Workload::das(16);
        assert_eq!(w.service_factor(1), 1.0, "alpha = 0 is the identity");
        w.size_service_exponent = 1.0;
        // Bigger jobs get longer services, smaller jobs shorter...
        assert!(w.service_factor(128) > 1.5);
        assert!(w.service_factor(1) < 0.2);
        // ...but the mean service over the size distribution is unchanged.
        let mean_factor = w.sizes.expect(|s| w.service_factor(s));
        assert!((mean_factor - 1.0).abs() < 1e-9, "normalized: {mean_factor}");
        // Net work rises: work weights sizes, and big sizes now run longer.
        assert!(w.mean_net_work() > Workload::das(16).mean_net_work());
        // Sampling respects the factor deterministically per size.
        let mut s1 = desim::RngStream::new(5).labelled("sizes");
        let mut t1 = desim::RngStream::new(5).labelled("service");
        let job = w.sample(&mut s1, &mut t1);
        assert!(job.base_service.seconds() > 0.0);
    }

    #[test]
    fn with_clusters_caps_the_component_split() {
        // An 8-cluster workload may split a 128-total job into 8
        // components of 16; the 4-cluster default stops at 4 of 32.
        let wide = Workload::das(16).with_clusters(8);
        assert_eq!(wide.clusters, 8);
        let mut s = RngStream::new(3).labelled("sizes");
        let mut t = RngStream::new(3).labelled("service");
        for _ in 0..2_000 {
            let job = wide.sample(&mut s, &mut t);
            assert!(job.request.num_components() <= 8);
            assert!(job.request.max_component() <= 16);
        }
        // More clusters ⇒ no fewer multi-component jobs at the same limit.
        assert!(wide.multi_fraction() >= Workload::das(16).multi_fraction());
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn with_clusters_rejects_zero() {
        let _ = Workload::das(16).with_clusters(0);
    }

    #[test]
    fn das_cut64_reduces_mean_work() {
        assert!(Workload::das_cut64(16).mean_net_work() < Workload::das(16).mean_net_work());
        assert_eq!(Workload::single_cluster_cut64().sizes.max_size(), 64);
    }
}
