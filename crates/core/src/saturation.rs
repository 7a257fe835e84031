//! Maximal-utilization measurement (§4, Table 3).
//!
//! "In these simulations, we maintain a constant backlog and observe the
//! time-average fraction of processors being busy, which yields the
//! maximal gross utilization."
//!
//! The queue(s) are never allowed to drain: a [`BacklogFeed`] tops them
//! up to a floor at the start of every scheduling pass, and the run goes
//! through the same [`SimBuilder`] event loop as the open-system sweeps
//! (so observers and the invariant auditor see it too). After a warm-up
//! period the time-average busy fraction converges to the saturation
//! throughput of the policy. The paper applies the method to the
//! single-global-queue policies (GS and SC); it is implemented for every
//! policy here, but for LS/LP the result depends on the backlog
//! composition, so Table 3 only reports GS and SC.

use coalloc_workload::{QueueRouting, Workload};
use desim::RngStream;

use crate::error::{ensure, ConfigError};
use crate::experiment::{CancelReason, CancelToken, WorkerPool};
use crate::feed::BacklogFeed;
use crate::placement::PlacementRule;
use crate::policy::PolicyKind;
use crate::sim::{SimBuilder, SimConfig};
use crate::system::SystemSpec;

/// Configuration of a constant-backlog saturation run.
#[derive(Clone, Debug)]
pub struct SaturationConfig {
    /// The scheduling policy under test.
    pub policy: PolicyKind,
    /// The workload model.
    pub workload: Workload,
    /// Routing of backlog refills to local queues (LS/LP).
    pub routing: QueueRouting,
    /// The system's shape: cluster count and per-cluster capacities.
    pub system: SystemSpec,
    /// Backlog floor: refill whenever fewer jobs wait.
    pub backlog: usize,
    /// Departures to discard as warm-up.
    pub warmup_departures: u64,
    /// Departures to measure over after warm-up.
    pub measured_departures: u64,
    /// Placement rule.
    pub rule: PlacementRule,
    /// Master seed.
    pub seed: u64,
}

impl SaturationConfig {
    /// Table 3's setup: GS on the 4×32 multicluster under the DAS
    /// workload with the given component-size limit.
    pub fn das_gs(limit: u32) -> Self {
        SaturationConfig {
            policy: PolicyKind::Gs,
            workload: Workload::das(limit),
            routing: QueueRouting::balanced(4),
            system: SystemSpec::das_multicluster(),
            backlog: 50,
            warmup_departures: 3_000,
            measured_departures: 30_000,
            rule: PlacementRule::WorstFit,
            seed: 2003,
        }
    }

    /// The SC baseline: FCFS over one 128-processor cluster with total
    /// requests.
    pub fn das_sc() -> Self {
        SaturationConfig {
            policy: PolicyKind::Sc,
            workload: Workload::single_cluster(),
            routing: QueueRouting::balanced(1),
            system: SystemSpec::das_single_cluster(),
            ..SaturationConfig::das_gs(16)
        }
    }

    /// The run this configuration describes, as the session executes
    /// it: `total_jobs` counts departures (warm-up plus measured), and
    /// the paper's defaults fill every other axis. The preset's arrival
    /// rate is never used: a backlog feed schedules no arrivals.
    fn sim_config(&self) -> SimConfig {
        SimConfig {
            policy: self.policy,
            workload: self.workload.clone(),
            routing: self.routing.clone(),
            system: self.system.clone(),
            total_jobs: self.warmup_departures + self.measured_departures,
            warmup_jobs: self.warmup_departures,
            rule: self.rule,
            seed: self.seed,
            ..SimConfig::das(self.policy, 16, 1.0)
        }
    }
}

/// The outcome of a saturation run.
#[derive(Clone, Copy, Debug, serde::Serialize, serde::Deserialize)]
pub struct SaturationResult {
    /// Maximal gross utilization: time-average busy fraction under
    /// constant backlog.
    pub max_gross_utilization: f64,
    /// Maximal net utilization: gross divided by the workload's
    /// gross/net ratio (§4).
    pub max_net_utilization: f64,
    /// Departures measured.
    pub departures: u64,
    /// Measurement window in simulated seconds.
    pub window_seconds: f64,
}

/// Runs a constant-backlog simulation and returns the maximal
/// utilizations.
pub fn maximal_utilization(cfg: &SaturationConfig) -> SaturationResult {
    let mut feed = BacklogFeed::new(cfg.workload.clone(), cfg.backlog, &RngStream::new(cfg.seed));
    // A backlog has no offered load: the queues never drain.
    let out = SimBuilder::new(&cfg.sim_config()).feed(&mut feed, f64::NAN).run();
    let m = &out.metrics;
    assert_eq!(
        m.departures, cfg.measured_departures,
        "constant-backlog run starved: no running jobs left"
    );
    SaturationResult {
        max_gross_utilization: m.gross_utilization,
        max_net_utilization: m.gross_utilization / cfg.workload.gross_net_ratio(),
        departures: m.departures,
        window_seconds: m.window_seconds,
    }
}

/// Replication plan for [`bisect_max_utilization`]'s open-system
/// probes: each probe utilization is classified by a majority vote over
/// `replications` independent runs on the search's worker pool.
/// Replication seeds are derived from each probe config's own seed via
/// [`crate::experiment::replication_seed`], so every probe utilization
/// sees common random numbers.
#[derive(Clone, Copy, Debug)]
pub struct ProbePlan {
    /// Independent runs per probe (majority vote decides saturation).
    pub replications: u64,
}

impl Default for ProbePlan {
    fn default() -> Self {
        ProbePlan { replications: 3 }
    }
}

impl ProbePlan {
    /// One probe: whether most replications at `util` saturate, or
    /// `Err` as soon as the token fires (tasks already running finish;
    /// the vote is abandoned).
    fn saturated<F>(
        &self,
        pool: &WorkerPool,
        make_cfg: &F,
        util: f64,
        cancel: Option<&CancelToken>,
    ) -> Result<bool, CancelReason>
    where
        F: Fn(f64) -> SimConfig,
    {
        let cfgs: Vec<SimConfig> = (0..self.replications)
            .map(|rep| {
                let cfg = make_cfg(util);
                let seed = crate::experiment::replication_seed(cfg.seed, rep);
                cfg.with_seed(seed)
            })
            .collect();
        let results = pool.run(cfgs, false, cancel);
        let mut outcomes = Vec::with_capacity(results.len());
        for slot in results {
            match slot {
                Some(result) => outcomes
                    .push(result.unwrap_or_else(|cause| panic!("replication panicked: {cause}"))),
                None => {
                    return Err(cancel
                        .and_then(CancelToken::state)
                        .unwrap_or(CancelReason::Cancelled))
                }
            }
        }
        let votes = outcomes.iter().filter(|o| o.saturated).count();
        Ok(2 * votes > outcomes.len())
    }
}

/// Why [`bisect_max_utilization`] returned no boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BisectionError {
    /// The search cannot run: invalid search inputs, or bounds that do
    /// not bracket the saturation threshold (the error names `lo` or
    /// `hi`).
    Config(ConfigError),
    /// The token fired before the search finished.
    Cancelled(CancelReason),
}

impl From<ConfigError> for BisectionError {
    fn from(e: ConfigError) -> Self {
        BisectionError::Config(e)
    }
}

impl From<CancelReason> for BisectionError {
    fn from(reason: CancelReason) -> Self {
        BisectionError::Cancelled(reason)
    }
}

/// Checks a bisection's search inputs: bounds with `0 < lo < hi <= 2`,
/// a positive, finite tolerance, and at least one probe replication.
fn validate_bisection(
    lo: f64,
    hi: f64,
    tolerance: f64,
    plan: &ProbePlan,
) -> Result<(), ConfigError> {
    ensure(
        lo > 0.0 && lo.is_finite(),
        "lo",
        format_args!("search bounds must satisfy 0 < lo < hi <= 2, got lo = {lo}"),
    )?;
    ensure(
        lo < hi && hi <= 2.0,
        "hi",
        format_args!("search bounds must satisfy 0 < lo < hi <= 2, got lo = {lo}, hi = {hi}"),
    )?;
    ensure(
        tolerance > 0.0 && tolerance.is_finite(),
        "tolerance",
        format_args!("bisection tolerance must be positive and finite, got {tolerance}"),
    )?;
    ensure(plan.replications > 0, "replications", "probe needs at least one replication")
}

/// Finds the maximal stable utilization of *any* policy by bisection on
/// open-system runs: the paper's constant-backlog method is only valid
/// for single-global-queue policies (GS, SC), while this search works
/// for LS and LP too — the backlog at the end of the arrival process
/// tells stable from unstable.
///
/// Each probe utilization is classified by a majority vote over
/// `plan.replications` runs on substream-derived seeds, executed on
/// `pool` (`coalloc-exp serve` passes its process-lifetime pool, so
/// concurrent searches and sweeps share one set of workers). One
/// unlucky seed near the threshold therefore cannot flip a bracket. The
/// search narrows `[lo, hi]` until `hi - lo <= tolerance` and returns
/// the last stable utilization found.
///
/// An optional cooperative [`CancelToken`] is checked between a probe's
/// replications, inside the pool: once it fires the search returns
/// [`BisectionError::Cancelled`] instead of a boundary. A later
/// uncancelled search re-probes from scratch and lands on the same
/// deterministic answer.
///
/// # Errors
/// [`BisectionError::Config`] for invalid inputs — bounds outside
/// `0 < lo < hi <= 2`, a tolerance that is not positive and finite, or
/// no probe replication — before any probe, and for bounds that do not
/// bracket the threshold: a saturated `lo` or a stable `hi`, the error
/// naming that bound. Both ends are probed unconditionally: an
/// unchecked bracket silently converges to the nearest bound and
/// reports it as the saturation point, which is a wrong *number*, not
/// a crash.
///
/// # Panics
/// Re-raises the cause of a probe replication that panicked.
pub fn bisect_max_utilization<F>(
    pool: &WorkerPool,
    make_cfg: F,
    mut lo: f64,
    mut hi: f64,
    tolerance: f64,
    plan: &ProbePlan,
    cancel: Option<&CancelToken>,
) -> Result<f64, BisectionError>
where
    F: Fn(f64) -> SimConfig,
{
    validate_bisection(lo, hi, tolerance, plan)?;
    ensure(
        !plan.saturated(pool, &make_cfg, lo, cancel)?,
        "lo",
        format_args!("bisection bracket invalid: lo = {lo} is already saturated; lower lo"),
    )?;
    ensure(
        plan.saturated(pool, &make_cfg, hi, cancel)?,
        "hi",
        format_args!(
            "bisection bracket invalid: hi = {hi} is still stable; the saturation point lies \
             above hi"
        ),
    )?;
    while hi - lo > tolerance {
        let mid = 0.5 * (lo + hi);
        if plan.saturated(pool, &make_cfg, mid, cancel)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(lo)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut cfg: SaturationConfig) -> SaturationConfig {
        cfg.warmup_departures = 500;
        cfg.measured_departures = 4_000;
        cfg
    }

    #[test]
    fn saturation_is_between_zero_and_one() {
        let r = maximal_utilization(&quick(SaturationConfig::das_gs(16)));
        assert!(
            r.max_gross_utilization > 0.3 && r.max_gross_utilization < 1.0,
            "gross {}",
            r.max_gross_utilization
        );
        assert!(r.max_net_utilization < r.max_gross_utilization);
        assert!(r.window_seconds > 0.0);
        assert_eq!(r.departures, 4_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = quick(SaturationConfig::das_gs(24));
        let a = maximal_utilization(&cfg);
        let b = maximal_utilization(&cfg);
        assert_eq!(a.max_gross_utilization, b.max_gross_utilization);
    }

    #[test]
    fn single_size_jobs_saturate_fully() {
        // Jobs of exactly one cluster each: the backlog keeps every
        // cluster permanently busy -> utilization ≈ 1.
        let mut cfg = quick(SaturationConfig::das_gs(32));
        cfg.workload.sizes = coalloc_workload::JobSizeDist::custom("32s", &[(32, 1.0)]);
        cfg.workload.extension = 1.0;
        let r = maximal_utilization(&cfg);
        assert!(r.max_gross_utilization > 0.999, "gross {}", r.max_gross_utilization);
        assert!((r.max_net_utilization - r.max_gross_utilization).abs() < 1e-9);
    }

    /// A single-replication search on a one-worker pool.
    fn search<F>(make_cfg: F, lo: f64, hi: f64, tolerance: f64) -> Result<f64, BisectionError>
    where
        F: Fn(f64) -> SimConfig,
    {
        let plan = ProbePlan { replications: 1 };
        bisect_max_utilization(&WorkerPool::new(1), make_cfg, lo, hi, tolerance, &plan, None)
    }

    /// The [`ConfigError`] a search stopped with.
    fn config_error(result: Result<f64, BisectionError>) -> ConfigError {
        match result {
            Err(BisectionError::Config(e)) => e,
            other => panic!("expected a config error, got {other:?}"),
        }
    }

    #[test]
    fn bisection_matches_constant_backlog_for_gs() {
        // The two methods estimate the same quantity for GS.
        let backlog = {
            let mut cfg = quick(SaturationConfig::das_gs(16));
            cfg.measured_departures = 10_000;
            maximal_utilization(&cfg).max_gross_utilization
        };
        let bisect = search(
            |util| {
                let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
                cfg.total_jobs = 12_000;
                cfg.warmup_jobs = 1_200;
                cfg
            },
            0.3,
            1.0,
            0.02,
        )
        .expect("0.3..1.0 brackets GS's threshold");
        assert!(
            (bisect - backlog).abs() < 0.06,
            "bisection {bisect:.3} vs constant-backlog {backlog:.3}"
        );
    }

    /// A tiny open-system config for the bracket-validation tests.
    fn tiny_cfg(util: f64) -> SimConfig {
        let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
        cfg.total_jobs = 400;
        cfg.warmup_jobs = 50;
        cfg
    }

    #[test]
    fn bisection_rejects_a_stable_hi() {
        // Both ends stable: the old code silently converged to ~hi and
        // reported a bound, not a measurement. Now it names `hi`.
        let e = config_error(search(tiny_cfg, 0.05, 0.2, 0.05));
        assert_eq!(e.field, "hi");
        assert!(e.message.contains("still stable"), "{e}");
    }

    #[test]
    fn bisection_rejects_a_saturated_lo() {
        // Checked unconditionally — the old debug_assert! (with a
        // different message) vanished entirely in release builds.
        let e = config_error(search(tiny_cfg, 1.5, 1.8, 0.05));
        assert_eq!(e.field, "lo");
        assert!(e.message.contains("already saturated"), "{e}");
    }

    #[test]
    fn invalid_search_inputs_name_their_field() {
        let field = |lo: f64, hi: f64, tolerance: f64, replications: u64| {
            let plan = ProbePlan { replications };
            validate_bisection(lo, hi, tolerance, &plan).err().map(|e| e.field)
        };
        assert_eq!(field(0.3, 1.2, 0.05, 3), None);
        assert_eq!(field(-1.0, 1.2, 0.05, 3), Some("lo"));
        assert_eq!(field(f64::NAN, 1.2, 0.05, 3), Some("lo"));
        assert_eq!(field(0.3, 3.0, 0.05, 3), Some("hi"));
        assert_eq!(field(0.5, 0.4, 0.05, 3), Some("hi"));
        assert_eq!(field(0.3, 1.2, 0.0, 3), Some("tolerance"));
        assert_eq!(field(0.3, 1.2, f64::INFINITY, 3), Some("tolerance"));
        assert_eq!(field(0.3, 1.2, 0.05, 0), Some("replications"));
    }

    #[test]
    fn bisection_reports_the_checks_message() {
        let e = config_error(search(tiny_cfg, -1.0, 1.2, 0.05));
        assert_eq!(e.field, "lo");
        assert!(
            e.message.starts_with("search bounds must satisfy 0 < lo < hi <= 2, got lo = -1"),
            "{e}"
        );
    }

    #[test]
    fn a_fired_token_cancels_the_search_before_any_replication_runs() {
        let token = CancelToken::new();
        token.cancel();
        // A replication of this config would fail validation, and the
        // probe would re-raise its panic.
        let never_runs = |util: f64| SimConfig { warmup_jobs: 400, ..tiny_cfg(util) };
        let plan = ProbePlan::default();
        let pool = WorkerPool::new(1);
        let result = bisect_max_utilization(&pool, never_runs, 0.3, 1.2, 0.05, &plan, Some(&token));
        assert_eq!(result, Err(BisectionError::Cancelled(CancelReason::Cancelled)));
    }

    #[test]
    fn replicated_bisection_brackets_the_threshold() {
        let make = |util: f64| {
            let mut cfg = SimConfig::das(PolicyKind::Gs, 16, util);
            cfg.total_jobs = 3_000;
            cfg.warmup_jobs = 300;
            cfg
        };
        let plan = ProbePlan { replications: 3 };
        let pool = WorkerPool::new(2);
        let r = bisect_max_utilization(&pool, make, 0.3, 1.2, 0.1, &plan, None);
        let r = r.expect("0.3..1.2 brackets GS's threshold");
        assert!((0.4..1.0).contains(&r), "threshold estimate {r}");
        // Deterministic: the vote and bisection depend only on seeds.
        let again = bisect_max_utilization(&pool, make, 0.3, 1.2, 0.1, &plan, None);
        assert_eq!(Ok(r), again);
    }

    #[test]
    fn backlog_runs_audit_clean() {
        // The constant-backlog loop is the session's loop, so the
        // invariant auditor watches it like any open run. A backlog run
        // stops with the machine busy; only the running jobs may hold
        // processors at its end.
        let mut cfgs = vec![
            SaturationConfig::das_gs(16),
            SaturationConfig::das_gs(32),
            SaturationConfig::das_sc(),
        ];
        for policy in [PolicyKind::Ls, PolicyKind::Lp, PolicyKind::Gb] {
            cfgs.push(SaturationConfig { policy, ..SaturationConfig::das_gs(16) });
        }
        for cfg in cfgs.into_iter().map(quick) {
            let sim = cfg.sim_config();
            let mut feed =
                BacklogFeed::new(cfg.workload.clone(), cfg.backlog, &RngStream::new(cfg.seed));
            let mut auditor = crate::audit::InvariantAuditor::new(&sim);
            let out = SimBuilder::new(&sim).feed(&mut feed, f64::NAN).run_observed(&mut auditor);
            assert!(auditor.is_clean(), "{}: {}", cfg.policy, auditor.report());
            assert_eq!(out.metrics.departures, cfg.measured_departures, "{}", cfg.policy);
            // The observed run is the unobserved one, bit for bit.
            let plain = maximal_utilization(&cfg);
            assert_eq!(
                out.metrics.gross_utilization.to_bits(),
                plain.max_gross_utilization.to_bits(),
                "{}",
                cfg.policy
            );
        }
    }

    #[test]
    fn backlog_runs_keep_failing_clusters() {
        // An endless backlog keeps the exponential fault process going
        // (an open run stops drawing failures after its last arrival).
        let cfg = quick(SaturationConfig::das_gs(16));
        let mut sim = cfg.sim_config();
        sim.faults = Some(crate::fault::FaultSpec::Exponential { mttf: 40_000.0, mttr: 2_000.0 });
        let mut feed =
            BacklogFeed::new(cfg.workload.clone(), cfg.backlog, &RngStream::new(cfg.seed));
        let mut auditor = crate::audit::InvariantAuditor::new(&sim);
        let out = SimBuilder::new(&sim).feed(&mut feed, f64::NAN).run_observed(&mut auditor);
        assert!(auditor.is_clean(), "{}", auditor.report());
        assert!(out.metrics.interruptions > 0, "no failure fired");
        assert!(out.metrics.availability < 1.0);
    }

    #[test]
    fn sc_baseline_runs() {
        let r = maximal_utilization(&quick(SaturationConfig::das_sc()));
        assert!(
            r.max_gross_utilization > 0.4 && r.max_gross_utilization < 1.0,
            "gross {}",
            r.max_gross_utilization
        );
    }
}
