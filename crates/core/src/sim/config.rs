//! Simulation configuration: warm-up policy, workload, system shape and
//! the validation rules tying them together.

use std::hash::{Hash, Hasher};

use coalloc_workload::{JobDisposition, QueueRouting, Workload};

use super::network::NetworkSpec;
use crate::error::{ensure, ConfigError};
use crate::fault::{FaultSpec, InterruptPolicy, ResizePolicy};
use crate::placement::PlacementRule;
use crate::policy::PolicyKind;
use crate::queue::QueueDiscipline;
use crate::system::SystemSpec;

/// How the warm-up transient is chosen.
///
/// The serde impls only matter for configs embedded in JSON reports;
/// the variant carries no data so the vendored derive can handle it.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize,
)]
pub enum Warmup {
    /// Discard the first `warmup_jobs` departures — the paper's rule,
    /// and the default.
    #[default]
    Fixed,
    /// Pick the discard count automatically with MSER-5 (White 1997): a
    /// pilot run with the same seed records the full response series,
    /// the truncation minimizing the standard error of the remaining
    /// mean becomes `warmup_jobs` for the measured run. Falls back to
    /// the configured `warmup_jobs` when the pilot yields too short a
    /// series to judge (fewer than 10 departures).
    Auto,
}

/// Configuration of a single simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// The scheduling policy under test.
    pub policy: PolicyKind,
    /// The workload model (sizes, service times, limit, extension).
    pub workload: Workload,
    /// Routing of jobs to local queues (LS: all jobs; LP: single-
    /// component jobs; ignored by GS/SC).
    pub routing: QueueRouting,
    /// The system's shape: cluster count and per-cluster capacities.
    pub system: SystemSpec,
    /// Job arrival rate (jobs per second).
    pub arrival_rate: f64,
    /// Squared coefficient of variation of the interarrival times
    /// (1.0 = the paper's Poisson arrivals; > 1 = burstier renewals).
    pub arrival_cv2: f64,
    /// Number of arrivals to generate.
    pub total_jobs: u64,
    /// Departures to discard as warm-up before the observation window.
    /// With [`Warmup::Auto`] this is only the fallback when the MSER
    /// pilot cannot judge.
    pub warmup_jobs: u64,
    /// How `warmup_jobs` is chosen (fixed, or MSER-5 via a pilot run).
    pub warmup: Warmup,
    /// Batch size for the batch-means response-time estimate.
    pub batch_size: u64,
    /// Component placement rule (the paper uses Worst Fit).
    pub rule: PlacementRule,
    /// Master seed; two runs with equal config and seed are identical.
    pub seed: u64,
    /// Record the raw response series in the outcome (one `f64` per
    /// measured departure) for warm-up / autocorrelation analysis.
    pub record_series: bool,
    /// Cluster failure/repair process, if any. `None` (the default)
    /// reproduces the paper's fault-free runs bit for bit.
    pub faults: Option<FaultSpec>,
    /// What happens to jobs whose running components a failure kills.
    pub interrupt: InterruptPolicy,
    /// How much placement freedom jobs grant the scheduler after
    /// submission. `Rigid` (the default) reproduces the paper's runs
    /// bit for bit.
    pub disposition: JobDisposition,
    /// The order in which queued jobs may start. `Fcfs` (the default)
    /// reproduces the paper's runs bit for bit.
    pub discipline: QueueDiscipline,
    /// Runtime-estimate multiplier for the backfilling disciplines:
    /// jobs without a submitted estimate are assumed to run for
    /// `estimate_factor x base_service`. `f64::INFINITY` disables
    /// backfilling entirely (no estimated finish beats any reservation),
    /// collapsing EASY onto FCFS.
    pub estimate_factor: f64,
    /// How malleable jobs may change shape while running (ignored for
    /// rigid and moldable dispositions).
    pub resize: ResizePolicy,
    /// Finite inter-cluster bandwidth, if any. `None` (the default)
    /// keeps the paper's constant extension and reproduces historical
    /// runs byte for byte; `Some` selects the network model
    /// ([`crate::sim::NetworkSpec`]), under which the effective
    /// extension of co-allocated jobs grows with load.
    pub network: Option<NetworkSpec>,
}

impl SimConfig {
    /// The paper's multicluster setup: a 4×32 system under the DAS
    /// workload with the given component-size limit and target gross
    /// utilization, balanced local queues.
    pub fn das(policy: PolicyKind, limit: u32, target_gross_util: f64) -> Self {
        let workload = Workload::das(limit);
        let rate = workload.rate_for_gross_utilization(target_gross_util, 128);
        SimConfig {
            policy,
            workload,
            routing: QueueRouting::balanced(4),
            system: SystemSpec::das_multicluster(),
            arrival_rate: rate,
            arrival_cv2: 1.0,
            total_jobs: 60_000,
            warmup_jobs: 5_000,
            warmup: Warmup::Fixed,
            batch_size: 500,
            rule: PlacementRule::WorstFit,
            seed: 2003,
            record_series: false,
            faults: None,
            interrupt: InterruptPolicy::RequeueFront,
            disposition: JobDisposition::Rigid,
            discipline: QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            resize: ResizePolicy::GrowAndShrink,
            network: None,
        }
    }

    /// The paper's single-cluster baseline: SC over 128 processors with
    /// total requests at the given target gross utilization.
    pub fn das_single_cluster(target_gross_util: f64) -> Self {
        let workload = Workload::single_cluster();
        let rate = workload.rate_for_gross_utilization(target_gross_util, 128);
        SimConfig {
            policy: PolicyKind::Sc,
            workload,
            routing: QueueRouting::balanced(1),
            system: SystemSpec::das_single_cluster(),
            arrival_rate: rate,
            arrival_cv2: 1.0,
            total_jobs: 60_000,
            warmup_jobs: 5_000,
            warmup: Warmup::Fixed,
            batch_size: 500,
            rule: PlacementRule::WorstFit,
            seed: 2003,
            record_series: false,
            faults: None,
            interrupt: InterruptPolicy::RequeueFront,
            disposition: JobDisposition::Rigid,
            discipline: QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            resize: ResizePolicy::GrowAndShrink,
            network: None,
        }
    }

    /// A DAS-style workload on an arbitrary — possibly heterogeneous —
    /// system: the component split is capped at the spec's *actual*
    /// cluster count, jobs are routed to local queues in proportion to
    /// cluster capacity, and the arrival rate hits the target gross
    /// utilization on the spec's total capacity.
    ///
    /// For [`PolicyKind::Sc`] the spec's processors are pooled into a
    /// single cluster (SC is the paper's one-big-cluster baseline).
    pub fn heterogeneous(
        policy: PolicyKind,
        limit: u32,
        target_gross_util: f64,
        system: SystemSpec,
    ) -> Self {
        if let Err(e) = system.validate() {
            panic!("{e}");
        }
        if policy == PolicyKind::Sc {
            let single = SystemSpec::new([system.total_capacity()]);
            let workload = Workload::single_cluster();
            let rate =
                workload.rate_for_gross_utilization(target_gross_util, single.total_capacity());
            let mut cfg = SimConfig::das_single_cluster(target_gross_util);
            cfg.workload = workload;
            cfg.system = single;
            cfg.arrival_rate = rate;
            return cfg;
        }
        let workload = Workload::das(limit).with_clusters(system.num_clusters());
        let rate = workload.rate_for_gross_utilization(target_gross_util, system.total_capacity());
        SimConfig {
            policy,
            workload,
            routing: system.proportional_routing(),
            system,
            arrival_rate: rate,
            arrival_cv2: 1.0,
            total_jobs: 60_000,
            warmup_jobs: 5_000,
            warmup: Warmup::Fixed,
            batch_size: 500,
            rule: PlacementRule::WorstFit,
            seed: 2003,
            record_series: false,
            faults: None,
            interrupt: InterruptPolicy::RequeueFront,
            disposition: JobDisposition::Rigid,
            discipline: QueueDiscipline::Fcfs,
            estimate_factor: 2.0,
            resize: ResizePolicy::GrowAndShrink,
            network: None,
        }
    }

    /// Switches to the unbalanced 40/20/20/20 routing (§3.1.2).
    pub fn unbalanced(mut self) -> Self {
        self.routing = QueueRouting::unbalanced(self.system.num_clusters());
        self
    }

    /// Replaces the seed (for replications).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Feeds every field to `state` as [`Hash`] does, with `seed` in
    /// place of the configured seed, so a digest of the config with its
    /// seed normalized needs no clone. Floats are fed by bit pattern.
    pub(crate) fn hash_with_seed<H: Hasher>(&self, seed: u64, state: &mut H) {
        // No `..`: a new field fails to compile until it is fed here.
        let SimConfig {
            policy,
            workload,
            routing,
            system,
            arrival_rate,
            arrival_cv2,
            total_jobs,
            warmup_jobs,
            warmup,
            batch_size,
            rule,
            seed: _,
            record_series,
            faults,
            interrupt,
            disposition,
            discipline,
            estimate_factor,
            resize,
            network,
        } = self;
        policy.hash(state);
        workload.hash(state);
        routing.hash(state);
        system.hash(state);
        arrival_rate.to_bits().hash(state);
        arrival_cv2.to_bits().hash(state);
        total_jobs.hash(state);
        warmup_jobs.hash(state);
        warmup.hash(state);
        batch_size.hash(state);
        rule.hash(state);
        seed.hash(state);
        record_series.hash(state);
        faults.hash(state);
        interrupt.hash(state);
        disposition.hash(state);
        discipline.hash(state);
        estimate_factor.to_bits().hash(state);
        resize.hash(state);
        network.hash(state);
    }

    /// Per-cluster capacities of the configured system.
    pub fn capacities(&self) -> &[u32] {
        self.system.capacities()
    }

    /// Total processors in the configured system.
    pub fn capacity(&self) -> u32 {
        self.system.total_capacity()
    }

    /// The offered gross utilization this configuration generates.
    pub fn offered_gross_utilization(&self) -> f64 {
        self.system.offered_gross_utilization(&self.workload, self.arrival_rate)
    }

    /// Checks the rules every run of this configuration needs: a valid
    /// system, a positive arrival rate, a warm-up that leaves jobs to
    /// measure, job sizes that can start, and in-range faults, estimate
    /// factor and network. The engine's entry points panic with the
    /// returned error's message; front ends call this before a run and
    /// report the error instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.system.validate().map_err(|e| ConfigError::new("system", e.to_string()))?;
        ensure(self.arrival_rate > 0.0, "arrival_rate", "arrival rate must be positive")?;
        ensure(self.arrival_cv2 >= 1.0, "arrival_cv2", "interarrival CV^2 must be >= 1")?;
        ensure(self.total_jobs > 0, "total_jobs", "need at least one job")?;
        ensure(
            self.warmup_jobs < self.total_jobs,
            "warmup_jobs",
            "warm-up must leave jobs to measure",
        )?;
        if self.policy.has_local_queues() {
            ensure(
                self.routing.queues() == self.system.num_clusters(),
                "routing",
                "routing must have one weight per cluster",
            )?;
            // Single-component jobs are confined to the cluster of their
            // local queue (LS/LP, §2.5) — except ordered requests, which
            // name their clusters themselves. Such a job routed to a
            // cluster smaller than its size blocks its queue forever, so
            // the largest single-component size must fit the *smallest*
            // cluster, not just the system.
            if self.workload.request_kind != coalloc_workload::RequestKind::Ordered {
                let min_cap = self.system.min_capacity();
                let max_single = self
                    .workload
                    .sizes
                    .support()
                    .iter()
                    .map(|&(s, _)| s)
                    .filter(|&s| !self.workload.is_multi(s))
                    .max();
                if let Some(m) = max_single {
                    ensure(
                        m <= min_cap,
                        "system",
                        format_args!(
                            "single-component jobs of size {m} can never start: they are \
                             confined to their local cluster and the smallest cluster has \
                             only {min_cap} processors"
                        ),
                    )?;
                }
                // Even when the sampled sizes happen to dodge it, a
                // component-size limit above the smallest cluster is a
                // misconfiguration under local queues.
                self.system
                    .validate_limit(self.workload.limit)
                    .map_err(|e| ConfigError::new("limit", e.to_string()))?;
            }
        }
        let max_size = self.workload.sizes.max_size();
        ensure(
            max_size <= self.capacity(),
            "system",
            format_args!("jobs of size {max_size} can never fit in {} processors", self.capacity()),
        )?;
        if let Some(spec) = &self.faults {
            spec.validate_for(&self.system)
                .map_err(|e| ConfigError::new("faults", format!("bad fault spec: {e}")))?;
        }
        // Infinity is a legal factor (it turns both backfilling
        // disciplines into FCFS); NaN and non-positive values are not.
        ensure(
            self.estimate_factor > 0.0,
            "estimate_factor",
            format_args!("estimate factor must be positive, got {}", self.estimate_factor),
        )?;
        match &self.network {
            Some(net) => net.validate(),
            None => Ok(()),
        }
    }
}

impl Hash for SimConfig {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.hash_with_seed(self.seed, state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimBuilder;
    use coalloc_workload::QueueRouting;

    fn quick(policy: PolicyKind, limit: u32, util: f64) -> SimConfig {
        let mut cfg = SimConfig::das(policy, limit, util);
        cfg.total_jobs = 6_000;
        cfg.warmup_jobs = 1_000;
        cfg.batch_size = 100;
        cfg
    }

    #[test]
    #[should_panic(expected = "can never start")]
    fn local_queues_reject_clusters_too_small_for_single_jobs() {
        // Under LS a single-component job is confined to the cluster of
        // its local queue: a size-16 job routed to the 8-processor
        // cluster blocks its queue forever. The old validation only
        // compared the max *total* size (128) against the *system*
        // capacity (128) and let this config through.
        let mut cfg = quick(PolicyKind::Ls, 16, 0.4);
        cfg.system = SystemSpec::new([8, 120]);
        cfg.routing = QueueRouting::balanced(2);
        SimBuilder::new(&cfg).run();
    }

    /// The rule `cfg` breaks: the field at fault and the message.
    fn rejection(cfg: &SimConfig) -> (&'static str, String) {
        let e = cfg.validate().expect_err("the config is invalid");
        (e.field, e.to_string())
    }

    #[test]
    fn empty_capacity_list_rejected() {
        let mut cfg = quick(PolicyKind::Gs, 16, 0.4);
        cfg.system = SystemSpec::new(Vec::new());
        let (field, message) = rejection(&cfg);
        assert_eq!(field, "system");
        assert!(message.contains("at least one cluster"), "{message}");
    }

    #[test]
    fn zero_capacity_cluster_rejected() {
        let mut cfg = quick(PolicyKind::Gs, 16, 0.4);
        cfg.system = SystemSpec::new([32, 0, 32, 64]);
        let (field, message) = rejection(&cfg);
        assert_eq!(field, "system");
        assert!(message.contains("zero capacity"), "{message}");
    }

    #[test]
    fn limit_exceeding_smallest_cluster_rejected_under_local_queues() {
        // Sizes that dodge the single-component check (all ≤ 8 or
        // multi-component) still leave the limit itself invalid.
        let mut cfg = quick(PolicyKind::Ls, 16, 0.4);
        cfg.workload.sizes =
            coalloc_workload::JobSizeDist::custom("small-or-wide", &[(8, 0.5), (64, 0.5)]);
        cfg.arrival_rate = cfg.workload.rate_for_gross_utilization(0.4, 128);
        cfg.system = SystemSpec::new([8, 40, 40, 40]);
        cfg.routing = QueueRouting::balanced(4);
        let (field, message) = rejection(&cfg);
        assert_eq!(field, "limit");
        assert!(message.contains("exceeds the smallest cluster"), "{message}");
    }

    #[test]
    fn heterogeneous_constructor_shapes_the_workload() {
        let cfg = SimConfig::heterogeneous(PolicyKind::Ls, 16, 0.5, SystemSpec::das2());
        assert_eq!(cfg.workload.clusters, 5, "split capped at the actual cluster count");
        assert_eq!(cfg.routing.queues(), 5);
        assert!((cfg.routing.shares()[0] - 0.36).abs() < 1e-12, "proportional routing");
        assert!((cfg.offered_gross_utilization() - 0.5).abs() < 1e-9);
        assert_eq!(cfg.validate(), Ok(()));
        // An 8-cluster homogeneous variant threads through as well.
        let cfg = SimConfig::heterogeneous(PolicyKind::Gs, 16, 0.4, SystemSpec::homogeneous(8, 32));
        assert_eq!(cfg.workload.clusters, 8);
        assert_eq!(cfg.validate(), Ok(()));
        // SC pools everything into one big cluster.
        let sc = SimConfig::heterogeneous(PolicyKind::Sc, 16, 0.4, SystemSpec::das2());
        assert_eq!(sc.system.num_clusters(), 1);
        assert_eq!(sc.capacity(), 200);
        assert_eq!(sc.validate(), Ok(()));
    }
}
